package witness

import (
	"encoding/binary"
	"errors"
	"sort"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/forensics"
	"trustedcvs/internal/wire"
)

// Wire tags of the witness messages (wire.Register). The numbers are
// part of the wire format.
const (
	wireSubmitRequest = 112
	wireSubmitReply   = 113
	wireSnapshotPut   = 114
	wireSnapshotReply = 115
	wireLatestRequest = 116
	wireLatestReply   = 117
	wireGossipRequest = 118
	wireGossipReply   = 119
)

func init() {
	wire.Register(wireSubmitRequest, func(b []byte, m *SubmitRequest) ([]byte, error) {
		return binenc.AppendBytes(appendOptCommitment(b, m.Commit), m.Pub), nil
	}, func(r *binenc.Reader) *SubmitRequest {
		return &SubmitRequest{Commit: readOptCommitment(r), Pub: r.Bytes()}
	})
	wire.Register(wireSubmitReply, func(b []byte, m *SubmitReply) ([]byte, error) {
		return binenc.AppendBool(b, m.OK), nil
	}, func(r *binenc.Reader) *SubmitReply {
		return &SubmitReply{OK: r.Bool()}
	})
	wire.Register(wireSnapshotPut, func(b []byte, m *SnapshotPut) ([]byte, error) {
		b = binenc.AppendString(b, m.Server)
		b = binary.AppendUvarint(b, m.Ctr)
		b = append(b, m.Root[:]...)
		return binenc.AppendBytes(b, m.Data), nil
	}, func(r *binenc.Reader) *SnapshotPut {
		return &SnapshotPut{Server: r.String(), Ctr: r.Uvarint(), Root: readDigest(r), Data: r.ViewBytes()}
	})
	wire.Register(wireSnapshotReply, func(b []byte, m *SnapshotReply) ([]byte, error) {
		return binenc.AppendBool(b, m.OK), nil
	}, func(r *binenc.Reader) *SnapshotReply {
		return &SnapshotReply{OK: r.Bool()}
	})
	wire.Register(wireLatestRequest, func(b []byte, m *LatestRequest) ([]byte, error) {
		return binenc.AppendString(b, m.Server), nil
	}, func(r *binenc.Reader) *LatestRequest {
		return &LatestRequest{Server: r.String()}
	})
	wire.Register(wireLatestReply, func(b []byte, m *LatestReply) ([]byte, error) {
		b = binenc.AppendBytes(appendOptCommitment(b, m.Commit), m.Pub)
		return appendEvidence(b, m.Evidence)
	}, func(r *binenc.Reader) *LatestReply {
		return &LatestReply{Commit: readOptCommitment(r), Pub: r.Bytes(), Evidence: readEvidence(r)}
	})
	wire.Register(wireGossipRequest, func(b []byte, m *GossipRequest) ([]byte, error) {
		return appendWindows(binenc.AppendString(b, m.From), m.Pubs, m.Commits, m.Evidence)
	}, func(r *binenc.Reader) *GossipRequest {
		m := &GossipRequest{From: r.String()}
		m.Pubs, m.Commits, m.Evidence = readWindows(r)
		return m
	})
	wire.Register(wireGossipReply, func(b []byte, m *GossipReply) ([]byte, error) {
		return appendWindows(b, m.Pubs, m.Commits, m.Evidence)
	}, func(r *binenc.Reader) *GossipReply {
		m := new(GossipReply)
		m.Pubs, m.Commits, m.Evidence = readWindows(r)
		return m
	})
}

var errNilElement = errors.New("witness: nil commitment or evidence in a list")

// commitmentMin is the smallest encoded Commitment: an empty server
// name, one-byte seq and ctr, two digests, an empty signature.
const commitmentMin = 4 + 2*digest.Size

func readDigest(r *binenc.Reader) (d digest.Digest) {
	copy(d[:], r.View(digest.Size))
	return d
}

func appendCommitment(b []byte, c *forensics.Commitment) []byte {
	b = binenc.AppendString(b, c.Server)
	b = binary.AppendUvarint(b, c.Seq)
	b = binary.AppendUvarint(b, c.Ctr)
	b = append(append(b, c.Root[:]...), c.Prev[:]...)
	return binenc.AppendBytes(b, c.Sig)
}

// readCommitment copies the signature out of the frame (as every
// reader here does with keys): a witness keeps commitments, keys and
// evidence in its logs long after the gossip frame that carried them,
// and a window would pin that whole frame per retained entry.
func readCommitment(r *binenc.Reader) forensics.Commitment {
	return forensics.Commitment{
		Server: r.String(), Seq: r.Uvarint(), Ctr: r.Uvarint(),
		Root: readDigest(r), Prev: readDigest(r), Sig: r.Bytes(),
	}
}

// appendOptCommitment appends a commitment a message may lack (a
// witness that has seen nothing yet) behind a presence byte.
func appendOptCommitment(b []byte, c *forensics.Commitment) []byte {
	if c == nil {
		return append(b, 0)
	}
	return appendCommitment(append(b, 1), c)
}

func readOptCommitment(r *binenc.Reader) *forensics.Commitment {
	if !r.Bool() {
		return nil
	}
	c := readCommitment(r)
	return &c
}

func appendEvidence(b []byte, evs []*forensics.Evidence) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(evs)))
	for _, e := range evs {
		if e == nil {
			return nil, errNilElement
		}
		b = binenc.AppendString(b, e.Server)
		b = binenc.AppendBytes(b, e.Pub)
		b = appendCommitment(appendCommitment(b, &e.A), &e.B)
		b = binenc.AppendStrings(b, e.Witnesses)
	}
	return b, nil
}

func readEvidence(r *binenc.Reader) []*forensics.Evidence {
	n := r.Count(3 + 2*commitmentMin)
	if n == 0 {
		return nil
	}
	evs := make([]*forensics.Evidence, n)
	for i := range evs {
		evs[i] = &forensics.Evidence{
			Server: r.String(), Pub: r.Bytes(),
			A: readCommitment(r), B: readCommitment(r),
			Witnesses: r.Strings(),
		}
	}
	return evs
}

// appendWindows appends what both gossip messages carry: the pinned
// keys in sorted name order — one spelling per map — then the
// commitment windows and the evidence bundles.
func appendWindows(b []byte, pubs map[string][]byte, commits []*forensics.Commitment, evs []*forensics.Evidence) ([]byte, error) {
	names := make([]string, 0, len(pubs))
	for name := range pubs {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = binenc.AppendBytes(binenc.AppendString(b, name), pubs[name])
	}
	b = binary.AppendUvarint(b, uint64(len(commits)))
	for _, c := range commits {
		if c == nil {
			return nil, errNilElement
		}
		b = appendCommitment(b, c)
	}
	return appendEvidence(b, evs)
}

func readWindows(r *binenc.Reader) (pubs map[string][]byte, commits []*forensics.Commitment, evs []*forensics.Evidence) {
	if n := r.Count(2); n > 0 {
		pubs = make(map[string][]byte, n)
		prev := ""
		for i := 0; i < n; i++ {
			name := r.String()
			if i > 0 && name <= prev {
				r.Fail("pinned keys out of order at %q", name)
			}
			pubs[name], prev = r.Bytes(), name
		}
	}
	if n := r.Count(commitmentMin); n > 0 {
		commits = make([]*forensics.Commitment, n)
		for i := range commits {
			c := readCommitment(r)
			commits[i] = &c
		}
	}
	return pubs, commits, readEvidence(r)
}
