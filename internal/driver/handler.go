package driver

import (
	"fmt"

	"trustedcvs/internal/core"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
)

// NewHandler builds the server-side request router: protocol messages
// go to the protocol server (honest or adversarial — anything
// implementing server.Server), content messages to the content store.
// Content responses carry the store's blobs uncopied
// (cvs.Store.View); a transport copies them before they leave the
// server, into the frame or by transport.Detacher. The handler is
// invoked concurrently by the pipelined transport; it
// needs no locking of its own because both targets synchronize
// internally (the protocol servers around their ordered sections, the
// content store around its blob map).
func NewHandler(srv server.Server, store *cvs.Store) transport.Handler {
	return func(req any) (any, error) {
		switch r := req.(type) {
		case *core.OpRequest:
			return srv.HandleOp(r)
		case *core.RiderRequest:
			return handleRider(srv, store, r)
		case *core.AckRequest:
			if err := srv.HandleAck(r); err != nil {
				return nil, err
			}
			return &core.OKResponse{}, nil
		case *core.GetBackupsRequest:
			return srv.HandleGetBackups(r)
		case *core.PushContentRequest:
			if err := store.Push(r.Path, r.Rev, r.Content); err != nil {
				return nil, err
			}
			return &core.OKResponse{}, nil
		case *core.FetchContentRequest:
			content, err := store.View(r.Path, r.Rev, r.Hash)
			if err != nil {
				return nil, err
			}
			return &core.ContentResponse{Content: content}, nil
		default:
			return nil, fmt.Errorf("driver: unknown request %T", req)
		}
	}
}

// handleRider serves an operation whose content rides along. Carried
// blobs are stored — under the hashes the store computes — BEFORE the
// operation is applied, so no reader can find a revision whose blob is
// missing; the protocol server then sees the plain request it always
// sees, and a checkout's answer names the blobs to attach. The riders
// are unauthenticated in both directions — the client checks each
// against the verified answer.
func handleRider(srv server.Server, store *cvs.Store, r *core.RiderRequest) (any, error) {
	for _, blob := range r.Blobs {
		if err := store.Push("", 0, blob); err != nil {
			return nil, err
		}
	}
	resp, err := srv.HandleOp(&r.OpRequest)
	if err != nil {
		return nil, err
	}
	out := &core.RiderResponse{Resp: resp}
	if op, ok := r.Op.(*cvs.CheckoutOp); ok && r.Want {
		attachContent(store, op, resp, out)
	}
	return out, nil
}

// attachContent fills out.Blobs with the content of the files the
// checkout answer in resp names, in answer order, up to
// cvs.MaxRiderBytes; a file that is absent, or whose blob the store
// does not hold, is left empty for the client to fetch.
func attachContent(store *cvs.Store, op *cvs.CheckoutOp, resp any, out *core.RiderResponse) {
	out.MakeBlobs(len(op.Paths))
	total := 0
	cvs.VisitCheckoutAnswer(answerOf(resp), func(i int, st cvs.FileStatus) {
		if !st.Found || i >= len(out.Blobs) {
			return
		}
		content, err := store.View(op.Paths[i], st.Rev, st.Hash)
		if err != nil || total+len(content) > cvs.MaxRiderBytes {
			return
		}
		total += len(content)
		out.Blobs[i] = content
	})
}

// answerOf returns the answer bytes of a protocol response.
func answerOf(resp any) []byte {
	switch r := resp.(type) {
	case *core.OpResponseI:
		return r.Answer
	case *core.OpResponseII:
		return r.Answer
	}
	return nil
}

// Classify maps protocol requests onto the transport's admission
// priority classes: interactive user operations first, the auditor's
// backup fetches next, anything unrecognized last. Gossip and scrub
// traffic never reaches this handler (witnesses run their own server),
// but harnesses that inject synthetic background load get the bottom
// class by default, so they are shed first.
func Classify(req any) transport.Priority {
	switch req.(type) {
	case *core.OpRequest, *core.RiderRequest, *core.AckRequest, *core.PushContentRequest, *core.FetchContentRequest:
		return transport.PriorityUser
	case *core.GetBackupsRequest:
		return transport.PriorityAudit
	default:
		return transport.PriorityBackground
	}
}
