// Package cvs exercises the gob half of hashdiscipline: any import of
// encoding/gob. (The suppressed occurrences are the fixtures that need
// gob for another pass's sake; fixture internal/server/persist.go is
// the second finding.)
package cvs

import (
	"encoding/gob"
	"net"
)

// Recv decodes straight off the connection: no frame budget, no
// canonical form.
func Recv(c net.Conn) (string, error) {
	var s string
	err := gob.NewDecoder(c).Decode(&s)
	return s, err
}
