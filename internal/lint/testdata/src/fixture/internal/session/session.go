// Package session exercises verifyflow's server-reply source on the
// protocol executor's Caller port: a reply committed unverified is
// reported, a verified one is not.
package session

import "fixture.example/internal/vdb"

// Caller is the executor's one path to the server.
type Caller interface {
	Call(req any) (any, error)
}

// StoreReply commits the server's reply with no verification.
func StoreReply(c Caller, tx *vdb.Tx, k []byte) error {
	raw, err := c.Call(k)
	if err != nil {
		return err
	}
	return tx.Put(k, raw.([]byte))
}

// StoreVerifiedReply verifies the reply first and stays silent.
func StoreVerifiedReply(c Caller, tx *vdb.Tx, k []byte) error {
	raw, err := c.Call(k)
	if err != nil {
		return err
	}
	if err := vdb.Verify(raw); err != nil {
		return err
	}
	return tx.Put(k, raw.([]byte))
}
