package core

import (
	"encoding/binary"
	"errors"

	"trustedcvs/internal/binenc"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/merkle"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// Wire tags of the protocol messages (wire.Register). The numbers are
// part of the wire and journal formats; 20 was the cross-shard
// response's and is never reused.
const (
	wireOpRequest           = 16
	wireAckRequest          = 17
	wireOpResponseI         = 18
	wireOpResponseII        = 19
	wireSyncRequest         = 21
	wireSyncReportI         = 22
	wireSyncReportII        = 23
	wireRegisters           = 24
	wireEpochBackup         = 25
	wireGetBackupsRequest   = 26
	wireBackupsResponse     = 27
	wirePushContentRequest  = 28
	wireFetchContentRequest = 29
	wireContentResponse     = 30
	wireOKResponse          = 31
	wireVO                  = 32
	wireRiderRequest        = 33
	wireRiderResponse       = 34
)

func init() {
	wire.Register(wireOpRequest, appendOpRequest, func(r *binenc.Reader) *OpRequest {
		m := new(OpRequest)
		readOpRequest(r, m)
		return m
	})
	wire.Register(wireAckRequest, func(b []byte, m *AckRequest) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.User))
		return binenc.AppendBytes(b, m.Sig), nil
	}, func(r *binenc.Reader) *AckRequest {
		return &AckRequest{User: sig.UserID(r.Uint32()), Sig: r.ViewBytes()}
	})
	wire.Register(wireOpResponseI, func(b []byte, m *OpResponseI) ([]byte, error) {
		b, err := appendAnswerVO(b, m.Answer, m.VO)
		if err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, m.Ctr)
		b = binary.AppendUvarint(b, uint64(m.Signer))
		return binenc.AppendBytes(b, m.Sig), nil
	}, func(r *binenc.Reader) *OpResponseI {
		m := new(OpResponseI)
		m.Answer, m.VO = readAnswerVO(r)
		m.Ctr, m.Signer, m.Sig = r.Uvarint(), sig.UserID(r.Uint32()), r.ViewBytes()
		return m
	})
	wire.Register(wireOpResponseII, func(b []byte, m *OpResponseII) ([]byte, error) {
		b, err := appendAnswerVO(b, m.Answer, m.VO)
		if err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, m.Ctr)
		b = binary.AppendUvarint(b, uint64(m.Last))
		b = binary.AppendUvarint(b, m.Epoch)
		return append(b, 0, 0, 0, 0), nil // see readRetired
	}, func(r *binenc.Reader) *OpResponseII {
		m := new(OpResponseII)
		m.Answer, m.VO = readAnswerVO(r)
		m.Ctr, m.Last, m.Epoch = r.Uvarint(), sig.UserID(r.Uint32()), r.Uvarint()
		readRetired(r, 4)
		return m
	})
	wire.Register(wireSyncRequest, func(b []byte, m *SyncRequest) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.From))
		return binary.AppendUvarint(b, m.Round), nil
	}, func(r *binenc.Reader) *SyncRequest {
		return &SyncRequest{From: sig.UserID(r.Uint32()), Round: r.Uvarint()}
	})
	wire.Register(wireSyncReportI, func(b []byte, m SyncReportI) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, m.LCtr)
		return binary.AppendUvarint(b, m.GCtr), nil
	}, func(r *binenc.Reader) SyncReportI {
		return SyncReportI{User: sig.UserID(r.Uint32()), LCtr: r.Uvarint(), GCtr: r.Uvarint()}
	})
	wire.Register(wireSyncReportII, func(b []byte, m SyncReportII) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.User))
		b = append(append(b, m.Sigma[:]...), m.Last[:]...)
		return append(b, 0), nil // see readRetired
	}, func(r *binenc.Reader) SyncReportII {
		m := SyncReportII{User: sig.UserID(r.Uint32()), Sigma: readDigest(r), Last: readDigest(r)}
		readRetired(r, 1)
		return m
	})
	wire.Register(wireRegisters, func(b []byte, m Registers) ([]byte, error) {
		b = append(append(b, m.Sigma[:]...), m.Last[:]...)
		b = binary.AppendUvarint(b, m.LastCtr)
		b = binary.AppendUvarint(b, m.GCtr)
		return binary.AppendUvarint(b, m.Ops), nil
	}, func(r *binenc.Reader) Registers {
		return Registers{Sigma: readDigest(r), Last: readDigest(r), LastCtr: r.Uvarint(), GCtr: r.Uvarint(), Ops: r.Uvarint()}
	})
	wire.Register(wireEpochBackup, func(b []byte, m *EpochBackup) ([]byte, error) {
		return appendBackup(b, m), nil
	}, readBackup)
	wire.Register(wireGetBackupsRequest, func(b []byte, m *GetBackupsRequest) ([]byte, error) {
		b = binary.AppendUvarint(b, uint64(m.User))
		return binary.AppendUvarint(b, m.Epoch), nil
	}, func(r *binenc.Reader) *GetBackupsRequest {
		return &GetBackupsRequest{User: sig.UserID(r.Uint32()), Epoch: r.Uvarint()}
	})
	wire.Register(wireBackupsResponse, func(b []byte, m *BackupsResponse) ([]byte, error) {
		b = binary.AppendUvarint(b, m.Epoch)
		b = binary.AppendUvarint(b, uint64(len(m.Backups)))
		for _, bk := range m.Backups {
			if bk == nil {
				return nil, errors.New("core: nil backup in BackupsResponse")
			}
			b = appendBackup(b, bk)
		}
		return b, nil
	}, func(r *binenc.Reader) *BackupsResponse {
		m := &BackupsResponse{Epoch: r.Uvarint()}
		if n := r.Count(backupMin); n > 0 {
			m.Backups = make([]*EpochBackup, n)
			for i := range m.Backups {
				m.Backups[i] = readBackup(r)
			}
		}
		return m
	})
	wire.Register(wirePushContentRequest, func(b []byte, m *PushContentRequest) ([]byte, error) {
		b = binenc.AppendString(b, m.Path)
		b = binary.AppendUvarint(b, m.Rev)
		return binenc.AppendBytes(b, m.Content), nil
	}, func(r *binenc.Reader) *PushContentRequest {
		return &PushContentRequest{Path: r.String(), Rev: r.Uvarint(), Content: r.ViewBytes()}
	})
	wire.Register(wireFetchContentRequest, func(b []byte, m *FetchContentRequest) ([]byte, error) {
		b = binenc.AppendString(b, m.Path)
		b = binary.AppendUvarint(b, m.Rev)
		return append(b, m.Hash[:]...), nil
	}, func(r *binenc.Reader) *FetchContentRequest {
		return &FetchContentRequest{Path: r.String(), Rev: r.Uvarint(), Hash: readDigest(r)}
	})
	wire.Register(wireContentResponse, func(b []byte, m *ContentResponse) ([]byte, error) {
		return binenc.AppendBytes(b, m.Content), nil
	}, func(r *binenc.Reader) *ContentResponse {
		return &ContentResponse{Content: r.ViewBytes()}
	})
	wire.Register(wireOKResponse, func(b []byte, _ *OKResponse) ([]byte, error) { return b, nil },
		func(*binenc.Reader) *OKResponse { return &OKResponse{} })
	// The rider envelopes: the request's body is an OpRequest's body
	// followed by the riders, the response nests whatever the protocol
	// server answered as tag + body.
	wire.Register(wireRiderRequest, func(b []byte, m *RiderRequest) ([]byte, error) {
		b, err := appendOpRequest(b, &m.OpRequest)
		if err != nil {
			return nil, err
		}
		return appendBlobs(binenc.AppendBool(b, m.Want), m.Blobs), nil
	}, func(r *binenc.Reader) *RiderRequest {
		m := new(RiderRequest)
		readOpRequest(r, &m.OpRequest)
		m.Want = r.Bool()
		m.Blobs = readBlobs(r, &m.one)
		return m
	})
	wire.Register(wireRiderResponse, func(b []byte, m *RiderResponse) ([]byte, error) {
		b, err := wire.Append(b, m.Resp)
		if err != nil {
			return nil, err
		}
		return appendBlobs(b, m.Blobs), nil
	}, func(r *binenc.Reader) *RiderResponse {
		m := &RiderResponse{Resp: wire.Read(r)}
		m.Blobs = readBlobs(r, &m.one)
		return m
	})
	// A VO on its own — the experiments size one with wire.Size — is its
	// bytes and nothing else: the frame's length delimits it.
	wire.Register(wireVO, func(b []byte, vo *merkle.VO) ([]byte, error) {
		return vo.AppendBinary(b)
	}, func(r *binenc.Reader) *merkle.VO {
		return viewVO(r, r.View(r.Remaining()))
	})
}

// appendOpRequest and readOpRequest are the OpRequest body, shared by
// the plain request and the rider envelope that embeds one by value.
func appendOpRequest(b []byte, m *OpRequest) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(m.User))
	b, err := wire.Append(b, m.Op)
	if err != nil {
		return nil, err
	}
	b = binenc.AppendBool(b, m.Backup != nil)
	if m.Backup != nil {
		b = appendBackup(b, m.Backup)
	}
	return b, nil
}

func readOpRequest(r *binenc.Reader, m *OpRequest) {
	m.User, m.Op = sig.UserID(r.Uint32()), vdb.ReadWireOp(r)
	if r.Bool() {
		m.Backup = readBackup(r)
	}
}

// appendBlobs appends content riders: a count, then each blob
// length-prefixed. An empty blob and an absent one are the same bytes.
func appendBlobs(b []byte, blobs [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blobs)))
	for _, blob := range blobs {
		b = binenc.AppendBytes(b, blob)
	}
	return b
}

// readBlobs reads riders as windows onto the frame; the count is
// bounded by the bytes left before anything is sized.
func readBlobs(r *binenc.Reader, one *[1][]byte) [][]byte {
	blobs := blobSlots(one, r.Count(1))
	for i := range blobs {
		blobs[i] = r.ViewBytes()
	}
	return blobs
}

// appendAnswerVO appends the (Q(D), v(Q,D)) pair every response leads
// with: the canonical answer bytes and the VO's own bytes, each
// length-prefixed. A nil VO (the trusted baseline sends none) is the
// empty string, which no VO encodes to. The VO writes itself after its
// length, so a server's VO goes from its tree into the frame directly.
func appendAnswerVO(b, answer []byte, vo *merkle.VO) ([]byte, error) {
	b = binenc.AppendBytes(b, answer)
	if vo == nil {
		return append(b, 0), nil
	}
	return vo.AppendBinary(binary.AppendUvarint(b, uint64(vo.Len())))
}

// readAnswerVO reads the pair as windows onto the frame: the answer is
// compared and decoded from there, and the VO keeps its bytes in place
// after the same grammar scan UnmarshalBinary runs.
func readAnswerVO(r *binenc.Reader) ([]byte, *merkle.VO) {
	answer := r.ViewBytes()
	if enc := r.ViewBytes(); enc != nil {
		return answer, viewVO(r, enc)
	}
	return answer, nil
}

func viewVO(r *binenc.Reader, enc []byte) *merkle.VO {
	vo, err := merkle.ViewVO(enc)
	if err != nil && r.Err() == nil {
		r.Fail("%v", err)
	}
	return vo
}

func readDigest(r *binenc.Reader) (d digest.Digest) {
	copy(d[:], r.View(digest.Size))
	return d
}

// readRetired reads n fields of the retired sharded database's layout,
// which a single tree writes as one zero byte each — in an OpResponseII
// the shard, its last cross-shard transaction, the global counter and
// the head vector; in a SyncReportII the per-shard register count — and
// refuses any that is not zero: a response or report from a forest.
func readRetired(r *binenc.Reader, n int) {
	for i := 0; i < n; i++ {
		if r.Byte() != 0 {
			r.Fail("a sharded database's field where a single tree has zero")
			return
		}
	}
}

// backupMin is the smallest encoded EpochBackup: one-byte user, epoch,
// counter and signature length around the two digests.
const backupMin = 4 + 2*digest.Size

func appendBackup(b []byte, m *EpochBackup) []byte {
	b = binary.AppendUvarint(b, uint64(m.User))
	b = binary.AppendUvarint(b, m.Epoch)
	b = append(append(b, m.Sigma[:]...), m.Last[:]...)
	b = binary.AppendUvarint(b, m.LastCtr)
	return binenc.AppendBytes(b, m.Sig)
}

// readBackup copies the signature out of the frame: the server stores
// backups for two epochs, and a window would pin the whole request
// frame each one rode in on.
func readBackup(r *binenc.Reader) *EpochBackup {
	return &EpochBackup{
		User: sig.UserID(r.Uint32()), Epoch: r.Uvarint(),
		Sigma: readDigest(r), Last: readDigest(r),
		LastCtr: r.Uvarint(), Sig: r.Bytes(),
	}
}
