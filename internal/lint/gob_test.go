package lint

import (
	"strconv"
	"testing"
)

// framePath are the packages that carry or parse node frames.
var framePath = []string{"node", "ingress", "transport"}

// TestNoGobInFramePath fails when a non-test file of a package that carries
// or parses frames imports encoding/gob. Every frame between processes is a
// hot-codec frame; gob only encodes the values the runtime cannot see into
// (application state, checkpoints), in the packages that own them.
func TestNoGobInFramePath(t *testing.T) {
	u, err := load()
	if err != nil {
		t.Fatal(err)
	}
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
