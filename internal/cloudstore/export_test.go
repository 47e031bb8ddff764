package cloudstore

// AllKinds lists every defined Kind, so the external conformance tests fail
// when a kind is added without a row in their tables.
func AllKinds() []Kind {
	var out []Kind
	for k := Kind(1); k < kindEnd; k++ {
		out = append(out, k)
	}
	return out
}

// Reads exposes the read/write classification to the external tests.
func (k Kind) Reads() bool { return k.reads() }
