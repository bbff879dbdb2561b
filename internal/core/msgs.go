package core

import (
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

// OpRequest asks the server to perform one operation on behalf of a
// user. Under Protocol III the request may piggyback the user's signed
// epoch backup (sent with the second operation of a new epoch).
type OpRequest struct {
	User   sig.UserID
	Op     vdb.Op
	Backup *EpochBackup // Protocol III only
}

// OpResponseI is the server's reply under Protocol I:
// (Q(D), v(Q,D), ctr, j, sig) with sig = sig_j(h(M(D)‖ctr)).
type OpResponseI struct {
	Answer []byte
	VO     *merkle.VO
	Ctr    uint64
	Signer sig.UserID
	Sig    sig.Signature
}

// AckRequest is Protocol I's third message: the user returns its
// signature over the new state h(M(D′)‖ctr+1). The server may not
// serve another operation until it arrives — the blocking step
// Protocol II eliminates.
type AckRequest struct {
	User sig.UserID
	Sig  sig.Signature
}

// OpResponseII is the server's reply under Protocols II and III:
// (Q(D), v(Q,D), ctr, j) — no signature. Epoch is used by Protocol III
// only (0 under Protocol II).
type OpResponseII struct {
	Answer []byte
	VO     *merkle.VO
	Ctr    uint64
	Last   sig.UserID
	Epoch  uint64
}

// Detach materializes the response's VO, which then holds its own bytes
// instead of the database tree it was cut from (transport.Detacher).
func (m *OpResponseI) Detach() { detach(m.VO) }

// Detach materializes the response's VO, which then holds its own bytes
// instead of the database tree it was cut from (transport.Detacher).
func (m *OpResponseII) Detach() { detach(m.VO) }

func detach(vo *merkle.VO) {
	if vo != nil {
		_, _ = vo.MarshalBinary()
	}
}

// SyncRequest announces a synchronization round on the broadcast
// channel ("the first user to complete k operations announces a
// sync-up message").
type SyncRequest struct {
	From  sig.UserID
	Round uint64
}

// EpochBackup is a user's signed summary of one epoch's registers,
// stored on the server under Protocol III. Sig covers
// EpochSummaryHash(User, Epoch, Sigma, Last, LastCtr).
type EpochBackup struct {
	User    sig.UserID
	Epoch   uint64
	Sigma   digest.Digest
	Last    digest.Digest
	LastCtr uint64
	Sig     sig.Signature
}

// Verify checks the backup's signature against the ring.
func (b *EpochBackup) Verify(ring *sig.Ring) error {
	return ring.Verify(b.User, EpochSummaryHash(b.User, b.Epoch, b.Sigma, b.Last, b.LastCtr), b.Sig)
}

// GetBackupsRequest fetches every user's stored backup for an epoch
// (sent by the designated checker in epoch e+2 for epoch e).
type GetBackupsRequest struct {
	User  sig.UserID
	Epoch uint64
}

// BackupsResponse returns the stored backups for one epoch.
type BackupsResponse struct {
	Epoch   uint64
	Backups []*EpochBackup
}

// PushContentRequest uploads revision content to the server's
// unauthenticated content store, which files it under the hash it
// computes. Path and Rev are labels: a client pushes before the commit
// that assigns the revision, and sends Rev 0.
type PushContentRequest struct {
	Path    string
	Rev     uint64
	Content []byte
}

// FetchContentRequest downloads revision content. Hash is the
// authenticated content hash the client expects and the only key the
// store looks up; Path and Rev name the revision in a refusal.
type FetchContentRequest struct {
	Path string
	Rev  uint64
	Hash digest.Digest
}

// ContentResponse returns fetched content.
type ContentResponse struct {
	Content []byte
}

// Detach copies the content, which a server serves from its store
// uncopied, so the response shares no memory with the server
// (transport.Detacher).
func (m *ContentResponse) Detach() { m.Content = clone(m.Content) }

// RiderRequest is an OpRequest with revision content riding along, so
// a CVS operation is one round trip: the content of a commit's files
// (Blobs, in CommitOp.Files order — the server stores each under the
// hash it computes itself before it applies the operation) and/or a
// request that the response carry the content of the files a checkout
// answer names (Want). The request is embedded by value: the server
// hands &r.OpRequest to its protocol server, which sees a plain
// request, and nothing but the handler ever sees the riders.
type RiderRequest struct {
	OpRequest
	Want  bool
	Blobs [][]byte

	one [1][]byte // backs a single-blob Blobs (see blobSlots)
}

// RiderResponse is the reply to a RiderRequest: whatever the protocol
// server answered, plus — unauthenticated, like everything the content
// store serves — the content of the files a checkout answer names, in
// answer order. An empty entry means "not attached" (the client
// fetches it); a client accepts an attached blob only if it hashes to
// the hash in the verified answer.
type RiderResponse struct {
	Resp  any
	Blobs [][]byte

	one [1][]byte
}

// Detach detaches the protocol response inside the envelope and
// copies the riders, which a server serves from its store uncopied, so
// the response shares no memory with the server (transport.Detacher).
func (m *RiderResponse) Detach() {
	if d, ok := m.Resp.(interface{ Detach() }); ok {
		d.Detach()
	}
	for i, blob := range m.Blobs {
		m.Blobs[i] = clone(blob)
	}
}

// clone copies b; nil and empty stay nil, as the wire reads them.
func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// MakeBlobs sizes m.Blobs to n empty entries for the handler to fill.
func (m *RiderResponse) MakeBlobs(n int) { m.Blobs = blobSlots(&m.one, n) }

// blobSlots returns n empty blob slots. The single-file operation is
// the traffic, so one slot lives inside the message it belongs to
// instead of in a slice of its own.
func blobSlots(one *[1][]byte, n int) [][]byte {
	switch n {
	case 0:
		return nil
	case 1:
		return one[:]
	}
	return make([][]byte, n)
}

// OKResponse is the generic empty success reply.
type OKResponse struct{}
