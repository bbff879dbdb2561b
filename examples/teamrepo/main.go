// Teamrepo: a real networked deployment — a TCP tcvs server, a TCP
// broadcast hub, and four concurrent developers hammering the same
// repository under Protocol II with periodic synchronization. Shows
// the library's full production path: net transport, the tagged binary
// wire format, concurrent clients, up-to-date checks, tags and history,
// all verified per operation.
//
// Run with: go run ./examples/teamrepo
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustedcvs"
)

// resolveKeepBoth resolves merge conflicts by keeping both sides'
// lines (the right call for append-only shared files).
func resolveKeepBoth(merged []byte) []byte {
	var out []byte
	for _, line := range strings.SplitAfter(string(merged), "\n") {
		t := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(t, "<<<<<<<") || t == "=======" || strings.HasPrefix(t, ">>>>>>>") {
			continue
		}
		out = append(out, line...)
	}
	return out
}

func main() {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol:  trustedcvs.ProtocolII,
		Users:     4,
		SyncEvery: 10,
		Network:   true, // real TCP sockets on localhost
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("server on %s, hub on %s\n", cluster.ServerAddr(), cluster.HubAddr())

	const nDevs = 4
	devs := make([]*trustedcvs.Repo, nDevs)
	for i := range devs {
		devs[i] = cluster.Repo(i, fmt.Sprintf("dev%d", i))
	}

	// Initial import by dev0.
	if _, err := devs[0].Commit(map[string][]byte{
		"Makefile": []byte("all:\n\tgo build ./...\n"),
		"main.go":  []byte("package main\n"),
	}, "initial import", nil); err != nil {
		log.Fatal(err)
	}

	// Four developers working concurrently on their own files plus a
	// contended shared file with up-to-date checks.
	var wg sync.WaitGroup
	var conflicts atomic.Int64
	for d := 0; d < nDevs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			repo := devs[d]
			for i := 0; i < 8; i++ {
				// Private file: always clean.
				if _, err := repo.Commit(map[string][]byte{
					fmt.Sprintf("pkg%d/impl.go", d): []byte(fmt.Sprintf("package pkg%d // iteration %d\n", d, i)),
				}, "private work", nil); err != nil {
					log.Fatalf("dev%d: %v", d, err)
				}
				// Shared file: the real CVS workflow. Check out the
				// head, append a line locally, and commit with the
				// up-to-date check. If someone else landed first,
				// `update` three-way-merges their head into the local
				// edit (appends to a shared log merge cleanly) and the
				// commit is retried against the new head.
				head, err := repo.Checkout("main.go")
				if err != nil {
					log.Fatalf("dev%d checkout: %v", d, err)
				}
				st, err := repo.Status("main.go")
				if err != nil {
					log.Fatalf("dev%d status: %v", d, err)
				}
				base := st[0].Rev
				local := append(append([]byte(nil), head["main.go"]...),
					[]byte(fmt.Sprintf("// dev%d was here (#%d)\n", d, i))...)
				for {
					_, err := repo.Commit(map[string][]byte{"main.go": local},
						"shared edit", map[string]uint64{"main.go": base})
					if err == nil {
						break
					}
					if !errors.Is(err, trustedcvs.ErrConflict) {
						log.Fatalf("dev%d shared commit: %v", d, err)
					}
					conflicts.Add(1)
					up, err := repo.Update("main.go", local, base)
					if err != nil {
						log.Fatalf("dev%d update: %v", d, err)
					}
					merged := up.Merged
					if up.Conflicts > 0 {
						// Concurrent appends at the same spot conflict;
						// for a log-style file the resolution is "keep
						// both sides" — drop the markers.
						merged = resolveKeepBoth(merged)
					}
					local, base = merged, up.HeadRev
				}
			}
		}(d)
	}
	wg.Wait()

	// Let any in-flight sync round complete cleanly.
	for _, repo := range devs {
		if err := repo.WaitIdle(10 * time.Second); err != nil {
			log.Fatalf("sync failed on an honest server: %v", err)
		}
	}

	// Tag the result and inspect history.
	if _, err := devs[0].Tag("MILESTONE_1", "main.go", "Makefile"); err != nil {
		log.Fatal(err)
	}
	history, err := devs[1].Log("main.go")
	if err != nil {
		log.Fatal(err)
	}
	files, err := devs[2].List()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nrepository after the sprint (every byte below was verified):\n")
	for _, f := range files {
		fmt.Printf("  %-16s rev %d\n", f.Path, f.Rev)
	}
	fmt.Printf("main.go history: %d revisions; %d up-to-date conflicts were retried\n", len(history), conflicts.Load())
	fmt.Printf("head of main.go: %q by %s\n", history[0].Log, history[0].Author)

	old, err := devs[3].CheckoutRev(1, "main.go")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revision 1 of main.go still reconstructs: %q\n", old["main.go"])

	tagged, err := devs[0].CheckoutTag("MILESTONE_1", "main.go")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MILESTONE_1 of main.go: %q\n", tagged["main.go"])
}
