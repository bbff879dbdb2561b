package lint

import "strconv"

// passHashDiscipline enforces the hashing and encoding discipline the
// verification-object algebra depends on:
//
//   - crypto/sha256 and crypto/sha512 may be imported only by
//     internal/digest. A raw sha256.Sum256 elsewhere bypasses domain
//     separation and silently breaks the VO algebra Protocols II/III
//     build their XOR registers on.
//   - encoding/gob may not be imported at all. Everything sent, journaled
//     or stored is internal/binenc behind internal/wire's tag table:
//     one spelling per value, every count backed by received bytes,
//     golden bytes checked in. gob has none of those properties, and a
//     gob decoder over bytes a peer supplied — a connection, a snapshot
//     a witness is shipped — hands that peer an unbounded allocation.
var passHashDiscipline = &Pass{
	Name: nameHashDiscipline,
	Doc:  "raw hash imports outside internal/digest; any import of encoding/gob",
	Run:  runHashDiscipline,
}

func runHashDiscipline(m *Module) []Diag {
	var out []Diag
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				switch {
				case (p == "crypto/sha256" || p == "crypto/sha512") && pkg.Rel != "internal/digest":
					out = append(out, m.diagf(nameHashDiscipline, imp.Pos(),
						"import of %s outside internal/digest: all hashing must go through digest's domain-separated helpers", p))
				case p == "encoding/gob":
					out = append(out, m.diagf(nameHashDiscipline, imp.Pos(),
						"import of encoding/gob: messages, journal records and state files all go through internal/binenc and internal/wire's tag table"))
				}
			}
		}
	}
	return out
}
