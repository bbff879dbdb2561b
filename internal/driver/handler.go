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
// The handler is invoked concurrently by the pipelined transport; it
// needs no locking of its own because both targets synchronize
// internally (the protocol servers around their ordered sections, the
// content store around its blob map and revision index).
func NewHandler(srv server.Server, store *cvs.Store) transport.Handler {
	return func(req any) (any, error) {
		switch r := req.(type) {
		case *core.OpRequest:
			return srv.HandleOp(r)
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
			content, err := store.Fetch(r.Path, r.Rev, r.Hash)
			if err != nil {
				return nil, err
			}
			return &core.ContentResponse{Content: content}, nil
		default:
			return nil, fmt.Errorf("driver: unknown request %T", req)
		}
	}
}

// Classify maps protocol requests onto the transport's admission
// priority classes: interactive user operations first, the auditor's
// backup fetches next, anything unrecognized last. Gossip and scrub
// traffic never reaches this handler (witnesses run their own server),
// but harnesses that inject synthetic background load get the bottom
// class by default — exactly the shedding order the brownout design
// wants.
func Classify(req any) transport.Priority {
	switch req.(type) {
	case *core.OpRequest, *core.AckRequest, *core.PushContentRequest, *core.FetchContentRequest:
		return transport.PriorityUser
	case *core.GetBackupsRequest:
		return transport.PriorityAudit
	default:
		return transport.PriorityBackground
	}
}
