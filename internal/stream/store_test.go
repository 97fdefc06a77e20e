package stream

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/annstore"
	"repro/internal/obs"
)

// computeSpanNames are the spans the annotation/compensation pipeline
// emits. A warm restart that truly serves from the persistent store must
// record none of them.
var computeSpanNames = map[string]bool{
	"annotate.luma_stats":          true,
	"annotate.scene_detect":        true,
	"annotate.build_track":         true,
	"stream.compensate_encode":     true,
	"stream.annotate_sidechannels": true,
}

func countComputeSpans(r *obs.Registry) int {
	n := 0
	for _, s := range r.RecentSpans() {
		if computeSpanNames[s.Name] {
			n++
		}
	}
	return n
}

// startStoreServer brings up a server backed by a persistent store in
// dir, with a fresh registry so span counts isolate this incarnation.
func startStoreServer(t *testing.T, dir string) (*Server, *annstore.Store, *obs.Registry, string) {
	t.Helper()
	st, err := annstore.Open(dir, annstore.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	s.SetStore(st)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return s, st, reg, addr.String()
}

// TestStoreMetricsWiredThroughObserver: the node hands its registry to
// the store whichever of SetObserver and SetStore comes first, so a
// cold session's writes show in annstore_puts_total with no direct
// Store.SetObserver call.
func TestStoreMetricsWiredThroughObserver(t *testing.T) {
	for _, observerFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("observer_first=%v", observerFirst), func(t *testing.T) {
			st, err := annstore.Open(t.TempDir(), annstore.Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			reg := obs.NewRegistry()
			s := NewServer(testCatalog())
			s.SetLogf(quiet)
			if observerFirst {
				s.SetObserver(reg)
				s.SetStore(st)
			} else {
				s.SetStore(st)
				s.SetObserver(reg)
			}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fetchAnnotated(t, addr.String())
			for _, kind := range []string{"track", "variant", "levels"} {
				puts := reg.Counter("annstore_puts_total", "", obs.L("kind", kind), obs.L("role", "server"))
				if puts.Value() == 0 {
					t.Errorf("annstore_puts_total{kind=%q} = 0 after a cold session", kind)
				}
			}
		})
	}
}

func fetchAnnotated(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := Request{Clip: "night", Quality: 0.10, Device: "ipaq5555"}
	if err := WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty annotated stream")
	}
	return data
}

// TestWarmRestartServesFromStore is the headline persistence property:
// populate the store by serving once, restart the server process state
// (new server, new memory cache, new registry, same store directory),
// and the restarted server streams bit-identical frames without running
// the annotation pipeline at all.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()

	s1, st1, reg1, addr1 := startStoreServer(t, dir)
	cold := fetchAnnotated(t, addr1)
	if n := countComputeSpans(reg1); n == 0 {
		t.Fatal("cold fetch recorded no pipeline spans; span accounting broken")
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2, reg2, addr2 := startStoreServer(t, dir)
	defer s2.Close()
	defer st2.Close()
	if st2.Len() == 0 {
		t.Fatal("store empty after restart; nothing was persisted")
	}
	warm := fetchAnnotated(t, addr2)

	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm restart served different bytes: cold %d bytes, warm %d bytes",
			len(cold), len(warm))
	}
	if n := countComputeSpans(reg2); n != 0 {
		t.Errorf("warm fetch ran the pipeline: %d compute spans, want 0", n)
	}
}

// TestStoreCorruptionFallsBackToCompute flips payload bytes in every
// persisted artifact between restarts. The restarted server must notice
// (checksums), quarantine the damage, recompute, and still serve bytes
// identical to the cold run — corruption degrades to a cache miss, never
// to corrupt output.
func TestStoreCorruptionFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()

	s1, st1, _, addr1 := startStoreServer(t, dir)
	cold := fetchAnnotated(t, addr1)
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the final payload byte of every artifact on disk.
	objDir := filepath.Join(dir, "objects")
	des, err := os.ReadDir(objDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".art") {
			continue
		}
		path := filepath.Join(objDir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no artifacts on disk to corrupt")
	}

	s2, st2, reg2, addr2 := startStoreServer(t, dir)
	defer s2.Close()
	defer st2.Close()
	warm := fetchAnnotated(t, addr2)

	if !bytes.Equal(cold, warm) {
		t.Fatal("corrupted store produced different served bytes")
	}
	if n := countComputeSpans(reg2); n == 0 {
		t.Error("corrupt artifacts were served without recompute")
	}
	if st2.Quarantined() == 0 {
		t.Error("corrupt artifacts were not quarantined")
	}
}
