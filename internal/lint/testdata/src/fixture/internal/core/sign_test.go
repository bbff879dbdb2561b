// Test files are excluded from analysis: this signature under a lock
// must not be reported.
package core

import "crypto/ed25519"

// SignInTest proves _test.go files never reach the passes.
func SignInTest(s *Signer, msg []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ed25519.Sign(s.priv, msg)
}
