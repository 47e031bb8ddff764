package cloudstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// Journal record ops. The journal is the disk backend's only persistent
// structure: an append-only JSON-lines file replayed on open.
const (
	jSet   = "set"
	jDel   = "del"
	jFence = "fence" // Key holds the partition number, Ver the epoch
)

// jrec is one journal line: a single key mutation (or fence advance) with
// the version the store assigned it. Records are written under the store
// lock, so journal order is apply order.
type jrec struct {
	Op  string `json:"op"`
	Key string `json:"k"`
	Val []byte `json:"v,omitempty"`
	Ver uint64 `json:"ver"`
}

// DiskStore is a Store whose every mutation is journaled to disk and whose
// state is rebuilt by replaying the journal on open. It exists so a store
// replica can survive a process restart with its fence epoch intact — a
// restarted stale primary must still refuse deposed-epoch applies.
//
// Durability is crash-consistent at the process level (the journal is
// written and flushed before a mutation is acknowledged); by default it
// does not fsync per record, so it is not power-failure durable. Opening
// with fsync enabled ("disk+fsync:<dir>") adds an fsync per commit, making
// an acked write survive a crash of the host — at the cost of turning each
// commit into a synchronous disk round-trip (order-of-magnitude write
// throughput loss on typical hardware; see the README's backend notes),
// which is why it is opt-in per deployment rather than the default.
type DiskStore struct {
	*Store
	f     *os.File
	w     *bufio.Writer
	fsync bool
}

var _ Backend = (*DiskStore)(nil)

// OpenDisk opens (or creates) the disk backend rooted at dir, replaying
// dir/store.journal into memory. Commits flush but do not fsync.
func OpenDisk(dir string) (*DiskStore, error) {
	return openDisk(dir, false)
}

// OpenDiskSync is OpenDisk with per-commit fsync: every acknowledged
// mutation is synced to stable storage before the ack, so chaos
// kill-the-store-process scenarios model a crash of the host honestly.
func OpenDiskSync(dir string) (*DiskStore, error) {
	return openDisk(dir, true)
}

func openDisk(dir string, fsync bool) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cloudstore: disk backend: %w", err)
	}
	path := filepath.Join(dir, "store.journal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cloudstore: disk backend: %w", err)
	}
	s := New()
	var maxVer uint64
	br := bufio.NewReaderSize(f, 64*1024)
	var good int64 // offset just past the last complete line
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF && len(raw) > 0 {
			// A record is acknowledged only once its line, newline included,
			// is flushed: a final line without one is the write the process
			// died in, acked to nobody. Drop it, so that the next append
			// starts on a line of its own. (A malformed line with data after
			// it is not a torn tail, and stays a refusal below.)
			err = f.Truncate(good)
			raw = nil
		}
		if err != nil && err != io.EOF {
			f.Close()
			return nil, fmt.Errorf("cloudstore: journal %s: %w", path, err)
		}
		if len(raw) == 0 {
			break
		}
		good += int64(len(raw))
		if raw = raw[:len(raw)-1]; len(raw) == 0 {
			continue
		}
		var rec jrec
		if err := json.Unmarshal(raw, &rec); err != nil {
			f.Close()
			return nil, fmt.Errorf("cloudstore: journal %s line %d: %w", path, line, err)
		}
		switch rec.Op {
		case jSet:
			s.data[rec.Key] = entry{value: rec.Val, version: rec.Ver}
			if rec.Ver > s.applied[rec.Key] {
				s.applied[rec.Key] = rec.Ver
			}
		case jDel:
			delete(s.data, rec.Key)
			if rec.Ver > s.applied[rec.Key] {
				s.applied[rec.Key] = rec.Ver
			}
		case jFence:
			part, perr := strconv.Atoi(rec.Key)
			if perr != nil {
				f.Close()
				return nil, fmt.Errorf("cloudstore: journal %s line %d: bad fence partition %q", path, line, rec.Key)
			}
			if rec.Ver > s.fences[part] {
				s.fences[part] = rec.Ver
			}
		default:
			f.Close()
			return nil, fmt.Errorf("cloudstore: journal %s line %d: unknown op %q", path, line, rec.Op)
		}
		// Only set/del records carry key versions; a fence record's Ver is an
		// epoch, which must not inflate the replayed version sequence.
		if rec.Op != jFence && rec.Ver > maxVer {
			maxVer = rec.Ver
		}
	}
	s.next = maxVer + 1
	d := &DiskStore{Store: s, f: f, w: bufio.NewWriter(f), fsync: fsync}
	// The hook runs under Store.mu, so writes are ordered without a second
	// lock; flushing per commit makes the journal current before the ack,
	// and (with fsync) syncing makes it durable before the ack.
	s.persist = func(recs []jrec) error {
		for _, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("cloudstore: journal encode: %w", err)
			}
			if _, err := d.w.Write(append(b, '\n')); err != nil {
				return fmt.Errorf("cloudstore: journal write: %w", err)
			}
		}
		if err := d.w.Flush(); err != nil {
			return err
		}
		if d.fsync {
			if err := d.f.Sync(); err != nil {
				return fmt.Errorf("cloudstore: journal fsync: %w", err)
			}
		}
		return nil
	}
	return d, nil
}

// Close flushes and closes the journal.
func (d *DiskStore) Close() error {
	d.Store.mu.Lock()
	defer d.Store.mu.Unlock()
	if err := d.w.Flush(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

func init() {
	RegisterBackend("disk", func(arg string) (Backend, error) {
		if arg == "" {
			return nil, fmt.Errorf("cloudstore: disk backend needs a directory, use disk:<dir>")
		}
		return OpenDisk(arg)
	})
	RegisterBackend("disk+fsync", func(arg string) (Backend, error) {
		if arg == "" {
			return nil, fmt.Errorf("cloudstore: disk+fsync backend needs a directory, use disk+fsync:<dir>")
		}
		return OpenDiskSync(arg)
	})
}
