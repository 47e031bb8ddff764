package lint

import (
	"sort"
	"strconv"
	"testing"
)

// framePath are the packages that carry or parse node frames.
var framePath = []string{"node", "ingress", "transport"}

// TestNoGobInFramePath fails when a non-test file of a package that carries
// or parses frames imports encoding/gob, or when one outside gob's owners
// encodes or decodes a single gob value (perValueGob). Every frame between
// processes is a hot-codec frame; gob only encodes the values the runtime
// cannot see into (application state, checkpoints), in the packages that
// own them.
func TestNoGobInFramePath(t *testing.T) {
	u, err := load()
	if err != nil {
		t.Fatal(err)
	}
	perValueGob(t, u)
	for _, name := range framePath {
		p := u.pkg(internalPrefix + name)
		if p == nil {
			t.Fatalf("package %s not loaded", name)
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/gob" {
					t.Errorf("%s: %s imports encoding/gob; frames are hot-codec frames", u.rel(imp.Pos()), name)
				}
			}
		}
	}
}

// gobOwners are the packages whose non-test code may encode or decode a
// single gob value: schema, whose hot codec falls back to it for exotic
// argument types, and emanager, whose checkpoints store one per context.
var gobOwners = map[string]bool{internalPrefix + "schema": true, internalPrefix + "emanager": true}

// perValueGob reports every call of schema.EncodeWire or schema.DecodeWire
// in non-test code outside gobOwners. A gob decoder rebuilds its type table
// for every value it is handed, so a record the runtime defines is a
// hot-codec frame, and values that travel together (a moved group's states)
// share one stream (schema.EncodeWires).
func perValueGob(t *testing.T, u *universe) {
	var found []string
	for _, p := range u.pkgs {
		if gobOwners[p.path] {
			continue
		}
		for id, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == internalPrefix+"schema" && (obj.Name() == "EncodeWire" || obj.Name() == "DecodeWire") {
				found = append(found, u.rel(id.Pos())+": calls schema."+obj.Name())
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}
