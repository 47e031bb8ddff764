package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestTCPCallTimeoutOnDeadPeer pins the satellite fix: a peer that accepts
// connections but never answers (a hung process) must not wedge Call
// forever — the caller's context deadline applies to the socket and the
// call fails with the typed ErrCallTimeout.
func TestTCPCallTimeoutOnDeadPeer(t *testing.T) {
	// A "dead" peer: accepts and then ignores the connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_ = conn // read nothing, answer nothing
		}
	}()

	m := NewTCPMesh()
	m.Register(2, ln.Addr().String())
	ep, err := m.Attach(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ep.Call(ctx, 2, Message{Kind: "ping"})
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timed-out call took %v", elapsed)
	}
}

// TestTCPAttachUsesRegisteredAddr pins the daemon-facing behavior: a node
// that registered its own address before Attach listens there, so peers can
// dial the configured port.
func TestTCPAttachUsesRegisteredAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // free the port for Attach (racy on busy hosts, fine in CI)

	m := NewTCPMesh()
	m.Register(1, addr)
	ep, err := m.Attach(1, echoHandler)
	if err != nil {
		t.Skipf("port %s re-bind raced: %v", addr, err)
	}
	defer ep.Close()
	got, ok := m.Addr(1)
	if !ok || got != addr {
		t.Fatalf("Addr(1) = %q ok=%v, want %q", got, ok, addr)
	}
}

func TestFaultyMeshDropAndHeal(t *testing.T) {
	fm := NewFaultyMesh(NewInMemMesh(NullNetwork{}))
	a, err := fm.Attach(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := fm.Attach(2, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	fm.Drop(1, 2)
	if _, err := a.Call(context.Background(), 2, Message{Kind: "x"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	// The reverse direction stays healthy (asymmetric fault).
	if _, err := b.Call(context.Background(), 1, Message{Kind: "x"}); err != nil {
		t.Fatalf("reverse direction: %v", err)
	}
	fm.Heal(1, 2)
	if _, err := a.Call(context.Background(), 2, Message{Kind: "x"}); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
}

func TestFaultyMeshDuplicateDeliversTwice(t *testing.T) {
	var calls int
	counting := func(_ context.Context, _ NodeID, req Message) (Message, error) {
		calls++
		return req, nil
	}
	fm := NewFaultyMesh(NewInMemMesh(NullNetwork{}))
	srv, err := fm.Attach(2, counting)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, err := fm.Attach(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	fm.Duplicate(1, 2, 1)
	if _, err := a.Call(context.Background(), 2, Message{Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("handler ran %d times, want 2 (duplicated)", calls)
	}
	if _, err := a.Call(context.Background(), 2, Message{Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("handler ran %d times, want 3 (duplication budget spent)", calls)
	}
}
