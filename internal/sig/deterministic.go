package sig

// This file is the one place in internal/sig that imports math/rand
// (scripts/check.sh names it as the exception): test and benchmark keys
// repeat from a seed, production keys come from NewSignerFrom over
// crypto/rand.Reader.

import mrand "math/rand"

// DeterministicSigners generates n signers with IDs 0..n-1 from a
// seeded PRNG. Only for tests, simulations and benchmarks — never for
// production keys.
func DeterministicSigners(n int, seed int64) ([]*Signer, *Ring, error) {
	rng := mrand.New(mrand.NewSource(seed))
	signers := make([]*Signer, n)
	for i := range signers {
		s, err := NewSignerFrom(UserID(i), rng)
		if err != nil {
			return nil, nil, err
		}
		signers[i] = s
	}
	return signers, NewRing(signers...), nil
}
