package lint

import (
	"fmt"
	"strings"
)

// passVerifyFlow machine-checks the paper's core security argument as
// a dataflow property: bytes that arrive from an untrusted party (the
// server's wire replies, raw network reads, snapshot files, hub
// messages, inbound RPC parameters) must pass through VO or signature
// verification before they can influence trusted client state (pinned
// register digests, the authenticated DB, witness commitment logs,
// audit reports) or be delivered as an answer. The lexical passes
// police conventions; this one follows the data through calls — a
// decode helper three frames away from the unverified store is still a
// finding.
//
// The one deliberate relaxation is the admission gate: a function that
// blocks on audit.WaitAdmissible has discharged its obligation for
// optimistically delivered results (the E17 design: answers may be
// used before verification only because the gate bounds how far an
// unverified epoch can run). See taint.go for the engine semantics.
var passVerifyFlow = &Pass{
	Name: nameVerifyFlow,
	Doc:  "untrusted input reaching trusted state or answer delivery without VO/signature verification on the path",
	Run:  runVerifyFlow,
}

// verifyflowExcluded lists module subtrees that sit outside the trust
// boundary: test harnesses, adversaries and fault injectors exist to
// *produce* unverified flows, and the lint package itself analyzes
// untrusted source text by design.
var verifyflowExcluded = []string{
	"internal/adversary", "internal/bench",
	"internal/fault", "internal/lint", "internal/sim", "internal/workload",
}

func verifyflowSpec(modPath string) *flowSpec {
	q := func(format string) string { return fmt.Sprintf(format, modPath) }
	return &flowSpec{
		pass: nameVerifyFlow,
		sources: map[string]sourceSpec{
			// Wire decodes: everything a Decoder yields came from the peer.
			q("(*%s/internal/wire.Decoder).Decode"): {srcResults, "a wire decode"},
			q("(*%s/internal/wire.Conn).Call"):      {srcResults, "a wire RPC reply"},
			// Transport replies: the server's answer before verification.
			q("(%s/internal/transport.Caller).Call"):           {srcResults, "a transport RPC reply"},
			q("(*%s/internal/transport.ResilientClient).Call"): {srcResults, "a transport RPC reply"},
			q("(*%s/internal/transport.Inproc).Call"):          {srcResults, "a transport RPC reply"},
			// The protocol executor's one path to the server, whatever
			// its caller plugs in behind it.
			q("(%s/internal/session.Caller).Call"): {srcResults, "a server reply to the session"},
			// Content riding with a verified operation: the answer is
			// verified, the riders beside it are the server's word
			// alone by the interface's contract — in epoch-audit mode
			// too, where the admission gate vouches for the answer.
			q("(%s/internal/cvs.ContentDoer).DoWithContent"): {srcSecondResult, "content riding with an operation"},
			// Snapshot loads: file contents are untrusted until their
			// restored head is checked against a pinned commitment
			// (the envelope checksum only proves storage integrity).
			q("%s/internal/server.LoadP2"):     {srcResults, "a snapshot load"},
			q("%s/internal/server.LoadP3"):     {srcResults, "a snapshot load"},
			q("%s/internal/server.LoadP2Auto"): {srcResults, "a snapshot load"},
			// Raw network reads fill their buffer argument.
			"(net.Conn).Read":                   {srcArg0, "a raw network read"},
			"(*net.TCPConn).Read":               {srcArg0, "a raw network read"},
			q("(*%s/internal/fault.Conn).Read"): {srcArg0, "a raw network read"},
			// Hub messages: peer-relayed broadcasts. The interface key
			// covers calls through broadcast.Channel; the concrete keys
			// cover direct use of an implementation.
			q("(%s/internal/broadcast.Channel).Recv"):        {srcChanRecv, "a broadcast hub message"},
			q("(*%s/internal/broadcast.hubChannel).Recv"):    {srcChanRecv, "a broadcast hub message"},
			q("(*%s/internal/broadcast.tcpChannel).Recv"):    {srcChanRecv, "a broadcast hub message"},
			q("(*%s/internal/broadcast.resumeChannel).Recv"): {srcChanRecv, "a broadcast hub message"},
		},
		entries: map[string]string{
			// The transport handler is a bare func type, so the
			// decode→dispatch hop has no static callee; the trust
			// boundary is modeled at the handler implementations
			// instead. Interface keys fan out to every implementation
			// by method-set matching.
			q("(%s/internal/server.Server).HandleOp"):         "an inbound client request",
			q("(%s/internal/server.Server).HandleAck"):        "an inbound client request",
			q("(%s/internal/server.Server).HandleGetBackups"): "an inbound client request",
			q("(*%s/internal/witness.Node).handleSubmit"):     "an inbound witness submission",
			q("(*%s/internal/witness.Node).handleSnapshot"):   "an inbound witness snapshot",
			q("(*%s/internal/witness.Node).handleLatest"):     "an inbound witness query",
			q("(*%s/internal/witness.Node).handleGossip"):     "an inbound witness gossip",
		},
		sinks: map[string]string{
			q("(*%s/internal/vdb.Tx).Put"):                 "the authenticated DB (vdb.Tx.Put)",
			q("(*%s/internal/vdb.Tx).Delete"):              "the authenticated DB (vdb.Tx.Delete)",
			q("(*%s/internal/core.Registers).Absorb"):      "the pinned register digests (Registers.Absorb)",
			q("(*%s/internal/witness.Check).Observe"):      "the pinned witness roots (Check.Observe)",
			q("(*%s/internal/witness.Check).ObserveBatch"): "the pinned witness roots (Check.ObserveBatch)",
			q("(*%s/internal/witness.Log).Append"):         "the witness commitment log (Log.Append)",
			q("(*%s/internal/audit.Auditor).SubmitReport"): "the audit report ledger (Auditor.SubmitReport)",
		},
		deliveries: map[string]string{
			q("(*%s/internal/driver.Client).Do"):    "answer delivery (driver.Client.Do)",
			q("(*%s/internal/driver.Client).Fetch"): "answer delivery (driver.Client.Fetch)",
			// Content that rode with the operation is as untrusted as
			// fetched content, and driver.Client hands it up unchecked on
			// purpose (one hash, not two): the checkout loop is where it
			// must meet rcs.CheckContent.
			q("(*%s/internal/cvs.Client).checkout"): "content delivery (cvs.Client.checkout)",
		},
		sanitizers: map[string]bool{
			q("%s/internal/vdb.Verify"):                     true,
			q("%s/internal/vdb.VerifyDerive"):               true,
			q("%s/internal/vdb.VerifyDeriveTree"):           true,
			q("(*%s/internal/vdb.Verifier).VerifyDerive"):   true,
			q("%s/internal/vdb.ReplayOn"):                   true,
			"crypto/ed25519.Verify":                         true,
			q("(*%s/internal/sig.Ring).Verify"):             true,
			q("(*%s/internal/core.EpochBackup).Verify"):     true,
			q("(*%s/internal/forensics.Commitment).Verify"): true,
			q("(*%s/internal/forensics.Evidence).Verify"):   true,
			q("%s/internal/durable.ReadEnvelope"):           true,
			// The Protocol II user-side verifier IS the paper's VO
			// check: every response is verified against the pinned
			// registers before its answer is surfaced.
			q("(*%s/internal/core/proto2.User).VerifyResponse"): true,
			// Content-hash check for fetched RCS blobs.
			q("%s/internal/rcs.CheckContent"): true,
		},
		gates: map[string]bool{
			q("(*%s/internal/audit.Auditor).WaitAdmissible"): true,
		},
		reportIn: func(rel string) bool {
			if strings.HasPrefix(rel, "cmd") || strings.HasPrefix(rel, "examples") {
				return false
			}
			return !underAny(rel, verifyflowExcluded...)
		},
	}
}

func runVerifyFlow(m *Module) []Diag {
	return runTaint(m, verifyflowSpec(m.Path))
}
