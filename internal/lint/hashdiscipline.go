package lint

import "strconv"

// passHashDiscipline enforces the hashing and encoding discipline the
// verification-object algebra depends on:
//
//   - crypto/sha256 and crypto/sha512 may be imported only by
//     internal/digest. A raw sha256.Sum256 elsewhere bypasses domain
//     separation and silently breaks the VO algebra Protocols II/III
//     build their XOR registers on.
//   - encoding/gob may be imported only by the files of gobRemainder.
//     Everything on the wire and in the two journals is a tagged binary
//     frame (internal/wire): one spelling per value, every count backed
//     by received bytes, golden bytes checked in. gob has none of
//     those properties, and a gob decoder on a connection hands a
//     hostile peer an unbounded allocation.
var passHashDiscipline = &Pass{
	Name: nameHashDiscipline,
	Doc:  "raw hash imports outside internal/digest; encoding/gob outside the named remainder",
	Run:  runHashDiscipline,
}

// gobRemainder names the files that still encode with gob: local,
// checksummed state that no peer supplies — server snapshots, client
// register files, the audit cursor, workspace metadata. Moving them to
// the binary codec is ROADMAP's "retire gob" phase 3; the list only
// shrinks.
var gobRemainder = map[string]bool{
	"internal/server/persist.go":      true,
	"internal/merkle/serialize.go":    true,
	"internal/core/proto1/state.go":   true,
	"internal/core/proto2/state.go":   true,
	"internal/core/proto3/state.go":   true,
	"internal/audit/durable.go":       true, // the cursor only
	"internal/workspace/workspace.go": true,
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
				case p == "encoding/gob" && !gobRemainder[m.relFile(m.Fset.Position(imp.Pos()).Filename)]:
					out = append(out, m.diagf(nameHashDiscipline, imp.Pos(),
						"import of encoding/gob: wire messages and journal records go through internal/wire's tagged binary codec; only the snapshot/state remainder (gobRemainder) may use gob"))
				}
			}
		}
	}
	return out
}
