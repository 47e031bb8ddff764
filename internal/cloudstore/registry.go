package cloudstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Backend is what a store-server process hosts: an op executor, the typed
// API over it, and resource teardown. The in-memory Store and the
// disk-journaled DiskStore both implement it; external KV adapters register
// the same way.
type Backend interface {
	Doer
	API
	Close() error
}

// Factory constructs a backend from the argument part of its spec (the text
// after the first ':', empty when the spec is just the backend name).
type Factory func(arg string) (Backend, error)

var (
	registryMu sync.Mutex
	registry   = make(map[string]Factory)
)

// RegisterBackend makes a backend constructable by Open under the given
// name. Registering a duplicate name panics — backends are wired at init
// time and a silent override would misroute deployments.
func RegisterBackend(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cloudstore: backend %q registered twice", name))
	}
	registry[name] = f
}

// Backends lists the registered backend names in sorted order.
func Backends() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open constructs a backend from a spec of the form "name" or "name:arg" —
// e.g. "memory", or "disk:/var/lib/aeon/store-0".
func Open(spec string) (Backend, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	registryMu.Lock()
	f, ok := registry[name]
	registryMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cloudstore: unknown backend %q (have %v)", name, Backends())
	}
	return f(arg)
}

func init() {
	RegisterBackend("memory", func(string) (Backend, error) {
		return New(), nil
	})
}
