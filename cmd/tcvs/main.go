// Command tcvs is the verified CVS command-line client (Protocol II).
// Every command runs as one or more fully verified operations against
// an untrusted tcvs-server; protocol state (the σ/last registers) is
// persisted between invocations in the state file, and synchronization
// rounds run over the users' broadcast hub.
//
// Usage:
//
//	tcvs -server HOST:PORT -hub HOST:PORT -user 0 -state u0.state [flags] COMMAND ...
//
//	tcvs ... commit -m "message" file1 file2 ...
//	tcvs ... checkout file1 file2 ...
//	tcvs ... checkout -r 3 file
//	tcvs ... log file
//	tcvs ... list
//	tcvs ... status file1 ...
//	tcvs ... tag -t RELEASE_1 file1 ...
//	tcvs ... sync            # participate in one synchronization round
//	tcvs ... watch -d 1m     # stay online, serve sync rounds
//
// All users must agree on -users (population size) and -k (sync
// period). A sync round completes only while every user is online
// (running any command, or `watch`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"trustedcvs/internal/backoff"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto1"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/cvs"
	"trustedcvs/internal/digest"
	"trustedcvs/internal/driver"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/workspace"
)

func main() {
	if err := run(); err != nil {
		if de, ok := core.AsDetection(err); ok {
			fmt.Fprintf(os.Stderr, "\n*** SERVER DEVIATION DETECTED ***\n%v\n", de)
			fmt.Fprintln(os.Stderr, "stop using this server and alert the other users.")
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "tcvs:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		serverAddr = flag.String("server", "127.0.0.1:7070", "tcvs-server address")
		hubAddr    = flag.String("hub", "127.0.0.1:7071", "broadcast hub address")
		proto      = flag.String("proto", "2", "protocol: 1 (signed states, needs -seed) or 2 (XOR registers)")
		user       = flag.Uint("user", 0, "this user's ID")
		users      = flag.Int("users", 2, "total user population")
		k          = flag.Uint64("k", 16, "sync period (operations)")
		seed       = flag.Int64("seed", 1, "deterministic key seed shared with the server (protocol 1 only)")
		stateFile  = flag.String("state", "", "protocol state file (default tcvs-user<ID>.state)")
		author     = flag.String("author", "", "author name for commits (default user<ID>)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("no command; see package docs (commit, checkout, log, list, status, tag, sync, watch)")
	}
	if *stateFile == "" {
		*stateFile = fmt.Sprintf("tcvs-user%d.state", *user)
	}
	if *author == "" {
		*author = fmt.Sprintf("user%d", *user)
	}

	// Resilient endpoints: the server connection reconnects and retries
	// with exactly-once semantics (session table on the server side),
	// and the hub channel resumes the broadcast log after a drop — a
	// flaky network costs latency, never a false alarm.
	conn := transport.DialResilient(*serverAddr, transport.RetryPolicy{})
	bc := broadcast.DialHubResume(*hubAddr)

	var client *driver.Client
	var save func() error
	switch *proto {
	case "2":
		u, err := loadUser2(*stateFile, sig.UserID(*user), *k)
		if err != nil {
			return err
		}
		client = driver.NewP2(u, conn, bc, *users)
		save = func() error { return saveUser(ownerOnly{durable.OS}, *stateFile, u.MarshalState) }
	case "1":
		signers, ring, err := sig.DeterministicSigners(*users, *seed)
		if err != nil {
			return err
		}
		if int(*user) >= len(signers) {
			return fmt.Errorf("user %d out of range (population %d)", *user, *users)
		}
		u, err := loadUser1(*stateFile, signers[*user], ring, *k)
		if err != nil {
			return err
		}
		client = driver.NewP1(u, conn, bc, *users)
		save = func() error { return saveUser(ownerOnly{durable.OS}, *stateFile, u.MarshalState) }
	default:
		return fmt.Errorf("unsupported -proto %q (protocol 3 runs have no CLI; see examples/epochs)", *proto)
	}
	defer client.Close()
	repo := cvs.NewClient(client, client, *author, nil)

	cmdErr := dispatch(repo, client, flag.Args())

	// Always persist the protocol state — even after a failed op the
	// local state is what this user has verified so far. After a
	// *detection* the state file is left alone; the user is expected
	// to stop.
	if _, ok := core.AsDetection(cmdErr); !ok {
		if err := save(); err != nil {
			return err
		}
	}
	return cmdErr
}

func dispatch(repo *cvs.Client, client *driver.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "commit":
		fs := flag.NewFlagSet("commit", flag.ExitOnError)
		msg := fs.String("m", "", "log message")
		_ = fs.Parse(rest)
		if fs.NArg() == 0 {
			return fmt.Errorf("commit: no files")
		}
		files := map[string][]byte{}
		for _, path := range fs.Args() {
			content, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[path] = content
		}
		results, err := repo.Commit(files, *msg, nil)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Printf("committed %s -> revision %d\n", r.Path, r.Rev)
		}
		return client.WaitIdle(time.Minute)

	case "checkout":
		fs := flag.NewFlagSet("checkout", flag.ExitOnError)
		rev := fs.Uint64("r", 0, "revision (0 = head)")
		tag := fs.String("t", "", "tag")
		_ = fs.Parse(rest)
		if fs.NArg() == 0 {
			return fmt.Errorf("checkout: no files")
		}
		var got map[string][]byte
		var err error
		switch {
		case *tag != "":
			got, err = repo.CheckoutTag(*tag, fs.Args()...)
		case *rev != 0:
			got, err = repo.CheckoutRev(*rev, fs.Args()...)
		default:
			got, err = repo.Checkout(fs.Args()...)
		}
		if err != nil {
			return err
		}
		for path, content := range got {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				return err
			}
			fmt.Printf("checked out %s (%d bytes, verified)\n", path, len(content))
		}
		return client.WaitIdle(time.Minute)

	case "log":
		if len(rest) != 1 {
			return fmt.Errorf("log: exactly one file")
		}
		revs, err := repo.Log(rest[0])
		if err != nil {
			return err
		}
		for _, r := range revs {
			fmt.Printf("revision %d  %s  %s  hash %s\n  %s\n",
				r.Rev, time.Unix(r.TimeUnix, 0).UTC().Format(time.RFC3339), r.Author,
				shortHash(r.Hash), r.Log)
		}
		return client.WaitIdle(time.Minute)

	case "list":
		fs := flag.NewFlagSet("list", flag.ExitOnError)
		prefix := fs.String("p", "", "restrict to paths under this prefix")
		_ = fs.Parse(rest)
		var files []cvs.FileStatus
		var err error
		if *prefix != "" {
			files, err = repo.ListPrefix(*prefix)
		} else {
			files, err = repo.List()
		}
		if err != nil {
			return err
		}
		for _, f := range files {
			fmt.Printf("%-40s rev %-4d %s\n", f.Path, f.Rev, shortHash(f.Hash))
		}
		return client.WaitIdle(time.Minute)

	case "status":
		if len(rest) == 0 {
			return fmt.Errorf("status: no files")
		}
		st, err := repo.Status(rest...)
		if err != nil {
			return err
		}
		for _, f := range st {
			if f.Found {
				fmt.Printf("%-40s rev %-4d %s\n", f.Path, f.Rev, shortHash(f.Hash))
			} else {
				fmt.Printf("%-40s (absent)\n", f.Path)
			}
		}
		return client.WaitIdle(time.Minute)

	case "update":
		fs := flag.NewFlagSet("update", flag.ExitOnError)
		base := fs.Uint64("r", 0, "revision the local edit is based on (required)")
		_ = fs.Parse(rest)
		if fs.NArg() != 1 || *base == 0 {
			return fmt.Errorf("update: need -r BASEREV and exactly one file")
		}
		path := fs.Arg(0)
		local, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		up, err := repo.Update(path, local, *base)
		if err != nil {
			return err
		}
		if up.UpToDate {
			fmt.Printf("%s is already at head (rev %d)\n", path, up.HeadRev)
			return client.WaitIdle(time.Minute)
		}
		if err := os.WriteFile(path, up.Merged, 0o644); err != nil {
			return err
		}
		if up.Conflicts > 0 {
			fmt.Printf("merged head rev %d into %s with %d CONFLICT(S) — resolve the markers, then commit\n",
				up.HeadRev, path, up.Conflicts)
		} else {
			fmt.Printf("merged head rev %d into %s cleanly — commit when ready\n", up.HeadRev, path)
		}
		return client.WaitIdle(time.Minute)

	case "annotate":
		if len(rest) != 1 {
			return fmt.Errorf("annotate: exactly one file")
		}
		origins, err := repo.Annotate(rest[0])
		if err != nil {
			return err
		}
		for i, o := range origins {
			line := o.Line
			if n := len(line); n > 0 && line[n-1] == '\n' {
				line = line[:n-1]
			}
			fmt.Printf("%4d  rev %-4d %-12s %s\n", i+1, o.Rev, o.Author, line)
		}
		return client.WaitIdle(time.Minute)

	case "remove":
		fs := flag.NewFlagSet("remove", flag.ExitOnError)
		msg := fs.String("m", "", "log message")
		_ = fs.Parse(rest)
		if fs.NArg() == 0 {
			return fmt.Errorf("remove: no files")
		}
		results, err := repo.Remove(*msg, fs.Args()...)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Rev == 0 {
				fmt.Printf("%s was not in the repository\n", r.Path)
			} else {
				fmt.Printf("removed %s at revision %d (history retained)\n", r.Path, r.Rev)
			}
		}
		return client.WaitIdle(time.Minute)

	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		r1 := fs.Uint64("r1", 0, "left revision (required)")
		r2 := fs.Uint64("r2", 0, "right revision (0 = head)")
		_ = fs.Parse(rest)
		if fs.NArg() != 1 || *r1 == 0 {
			return fmt.Errorf("diff: need -r1 N and exactly one file")
		}
		patch, err := repo.Diff(fs.Arg(0), *r1, *r2)
		if err != nil {
			return err
		}
		if patch.IsIdentity() {
			fmt.Println("(no differences)")
		} else {
			right := fmt.Sprintf("%s@%d", fs.Arg(0), *r2)
			if *r2 == 0 {
				right = fs.Arg(0) + "@head"
			}
			fmt.Print(patch.Unified(fmt.Sprintf("%s@%d", fs.Arg(0), *r1), right, 3))
		}
		return client.WaitIdle(time.Minute)

	case "tag":
		fs := flag.NewFlagSet("tag", flag.ExitOnError)
		name := fs.String("t", "", "tag name")
		_ = fs.Parse(rest)
		if *name == "" || fs.NArg() == 0 {
			return fmt.Errorf("tag: need -t NAME and files")
		}
		tagged, err := repo.Tag(*name, fs.Args()...)
		if err != nil {
			return err
		}
		for _, f := range tagged {
			fmt.Printf("tagged %s rev %d as %s\n", f.Path, f.Rev, *name)
		}
		return client.WaitIdle(time.Minute)

	case "ws-checkout", "ws-status", "ws-update", "ws-commit", "ws-add":
		return wsCommand(repo, client, cmd, rest)

	case "sync":
		// Participate in (or wait out) one synchronization window.
		fmt.Println("participating in synchronization (10s window)...")
		if err := client.WaitIdle(10 * time.Second); err != nil {
			return err
		}
		time.Sleep(10 * time.Second)
		return client.Err()

	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		d := fs.Duration("d", time.Minute, "how long to stay online")
		_ = fs.Parse(rest)
		fmt.Printf("online for %v, serving sync rounds...\n", *d)
		deadline := time.Now().Add(*d)
		poll := backoff.Poll(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			if err := client.Err(); err != nil {
				return err
			}
			poll.Sleep()
		}
		return client.Err()

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// wsCommand dispatches the working-copy commands: a verified sandbox
// directory with tracked base revisions (see internal/workspace).
func wsCommand(repo *cvs.Client, client *driver.Client, cmd string, rest []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", ".", "workspace directory")
	msg := fs.String("m", "", "log message (ws-commit)")
	prefix := fs.String("p", "", "path prefix (ws-checkout)")
	_ = fs.Parse(rest)

	ws, err := workspace.Open(*dir, repo)
	if err != nil {
		return err
	}
	switch cmd {
	case "ws-checkout":
		if fs.NArg() > 0 {
			err = ws.Checkout(fs.Args()...)
		} else {
			err = ws.CheckoutAll(*prefix)
		}
		if err != nil {
			return err
		}
		fmt.Printf("workspace %s tracks %d file(s)\n", *dir, len(ws.Tracked()))

	case "ws-add":
		if fs.NArg() == 0 {
			return fmt.Errorf("ws-add: no files")
		}
		for _, p := range fs.Args() {
			if err := ws.Add(p); err != nil {
				return err
			}
			fmt.Printf("added %s\n", p)
		}

	case "ws-status":
		states, err := ws.Status()
		if err != nil {
			return err
		}
		for _, st := range states {
			flagStr := "clean"
			switch {
			case st.Missing:
				flagStr = "MISSING"
			case st.Modified && st.OutOfDate:
				flagStr = "modified, needs update"
			case st.Modified:
				flagStr = "modified"
			case st.OutOfDate:
				flagStr = "needs update"
			}
			fmt.Printf("%-40s base %-4d head %-4d %s\n", st.Path, st.BaseRev, st.HeadRev, flagStr)
		}

	case "ws-update":
		reports, err := ws.Update()
		if err != nil {
			return err
		}
		for _, r := range reports {
			switch r.Action {
			case "conflict":
				fmt.Printf("%-40s MERGED WITH %d CONFLICT(S) — resolve before committing\n", r.Path, r.Conflicts)
			default:
				fmt.Printf("%-40s %s (base now %d)\n", r.Path, r.Action, r.NewBase)
			}
		}

	case "ws-commit":
		results, err := ws.Commit(*msg)
		if err != nil {
			return err
		}
		if results == nil {
			fmt.Println("nothing modified")
		}
		for _, r := range results {
			if r.Conflict {
				fmt.Printf("%s: up-to-date check failed — run ws-update first\n", r.Path)
			} else {
				fmt.Printf("committed %s -> revision %d\n", r.Path, r.Rev)
			}
		}
	}
	return client.WaitIdle(time.Minute)
}

// The register file is MarshalState's bytes in the checksummed
// envelope: a flipped bit must fail the load, not restore registers
// that would convict an honest server.
const stateMagic = "TCVSUSER1\n"

// loadState returns the marshaled protocol state in the file at path,
// nil when there is no file. A file from before register files had an
// envelope is refused with core.ErrStateFormat.
func loadState(path string) ([]byte, error) {
	data, err := durable.ReadFile(path, stateMagic, digest.DomainSnapshot)
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case errors.Is(err, durable.ErrMagic):
		return nil, fmt.Errorf("%w: %s", core.ErrStateFormat, path)
	}
	return data, err
}

func loadUser2(path string, id sig.UserID, k uint64) (*proto2.User, error) {
	data, err := loadState(path)
	if err != nil {
		return nil, err
	}
	if data == nil {
		// Fresh user on a fresh repository: genesis state.
		fmt.Fprintf(os.Stderr, "tcvs: no state file %s; starting from the empty repository state\n", path)
		return proto2.NewUser(id, digest.Empty(), k), nil
	}
	return proto2.RestoreUser(data)
}

func loadUser1(path string, signer *sig.Signer, ring *sig.Ring, k uint64) (*proto1.User, error) {
	data, err := loadState(path)
	if err != nil {
		return nil, err
	}
	if data == nil {
		fmt.Fprintf(os.Stderr, "tcvs: no state file %s; starting fresh\n", path)
		return proto1.NewUser(signer, ring, k), nil
	}
	return proto1.RestoreUser(signer, ring, data)
}

// ownerOnly is a filesystem whose files are created 0600: the state
// file is this user's private memory of the repository.
type ownerOnly struct{ durable.FS }

func (ownerOnly) Create(name string) (durable.File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return durable.NewFile(f), nil
}

// saveUser replaces the state file atomically. A crash mid-save must
// leave the previous state loadable: a user who lost it could only
// restart from genesis, and every later answer would then look like a
// rollback by the server.
func saveUser(fs durable.FS, path string, marshal func() ([]byte, error)) error {
	data, err := marshal()
	if err != nil {
		return err
	}
	return durable.WriteFile(fs, path, false, stateMagic, digest.DomainSnapshot, data)
}

func shortHash(d digest.Digest) string { return d.Short() }
