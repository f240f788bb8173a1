package serve

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/montecarlo"
)

// killCampaignParams is the first campaign the kill-resume test
// interrupts; the second is the same campaign under another seed, so none
// of its cells is in the cache.
const killCampaignParams = `
campaign.name = kill-resume
campaign.presets = all
campaign.systems = none, svo
campaign.samples = 4
campaign.seed = 11
`

var killCampaignParams2 = strings.Replace(killCampaignParams, "seed = 11", "seed = 12", 1)

// killCells is the number of cells in each kill-resume campaign.
func killCells(t *testing.T) int {
	t.Helper()
	j, err := newJob("", KindCampaign, killCampaignParams, campaign.DefaultSystems(nil), true)
	if err != nil {
		t.Fatal(err)
	}
	return len(j.cells)
}

// TestServeKillHelper is the child half of TestKillResumeByteIdentity:
// re-executed as a subprocess, it opens a server with two slots over the
// handed-down state dir, submits both campaigns, and blocks until the
// parent SIGKILLs it — no cleanup, no flushing, the crash is real. The
// first job's last cell and the second job's cells from its third on
// never finish, so the helper settles with both jobs running on the
// shared pool: every cell of the first job but its last journaled, two
// of the second's journaled, and one cell of each in flight.
func TestServeKillHelper(t *testing.T) {
	if os.Getenv("SERVE_KILL_HELPER") != "1" {
		t.Skip("helper process for TestKillResumeByteIdentity")
	}
	last := killCells(t) - 1
	stuck := make(chan struct{})
	srv, err := NewServer(Config{
		StateDir: os.Getenv("SERVE_KILL_DIR"),
		Workers:  2,
		disrupt: func(job string, shard, _ int) error {
			if (job == "job-0001" && shard == last) || (job == "job-0002" && shard >= 2) {
				<-stuck // in flight until the SIGKILL
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two slots even where NumCPU clamps the pool to one: with one slot
	// the first job's held cell would keep the second from starting.
	// Nothing reads the pool before the first Submit.
	srv.slots = make(chan *montecarlo.Scratch, 2)
	for range 2 {
		srv.slots <- new(montecarlo.Scratch)
	}
	for _, params := range []string{killCampaignParams, killCampaignParams2} {
		if _, err := srv.Submit(KindCampaign, params); err != nil {
			t.Fatal(err)
		}
	}
	select {} // hold the process open until SIGKILL
}

// TestKillResumeByteIdentity is the crash-safety acceptance gate: a
// server SIGKILLed with two campaign jobs in flight — no deferred cleanup
// runs — and restarted over the same state dir finishes both from its
// journal, and each job's final JSONL and summary artifacts are
// byte-identical to an uninterrupted in-process run of its spec.
func TestKillResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	specs := []string{killCampaignParams, killCampaignParams2}
	n := killCells(t)
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestServeKillHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "SERVE_KILL_HELPER=1", "SERVE_KILL_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the helper has journaled every cell it will (all of the
	// first job's but one, two of the second's), then pull the trigger.
	journal := filepath.Join(dir, JournalFile)
	deadline := time.Now().Add(time.Minute)
	for {
		if data, err := os.ReadFile(journal); err == nil {
			if bytes.Count(data, []byte(`"type":"cell"`)) >= n+1 {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper never journaled %d cells; output:\n%s", n+1, out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // the kill makes this an error by design

	// The restart IS the recovery path: replay, resume, finish.
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("journal after SIGKILL failed to replay: %v", err)
	}
	if len(rep.Jobs) != len(specs) {
		t.Fatalf("journal replayed %d jobs, want %d; output:\n%s", len(rep.Jobs), len(specs), out.String())
	}
	for _, j := range rep.Jobs {
		if j.Status != StatusRunning {
			t.Fatalf("job %s was %s at the kill, want both jobs running", j.ID, j.Status)
		}
	}
	if len(rep.Cells) != n+1 {
		t.Fatalf("%d cells journaled at the kill, want %d", len(rep.Cells), n+1)
	}

	srv := newTestServer(t, dir, nil)
	defer srv.Close()
	for k, params := range specs {
		wantJSONL, wantSummary := reference(t, params)
		final := waitDone(t, srv, rep.Jobs[k].ID)
		if final.Status != StatusDone {
			t.Fatalf("resumed job status %+v, want done", final)
		}
		if preKilled := []int{n - 1, 2}[k]; final.CacheHits != preKilled {
			t.Errorf("resumed job %s reports %d cache hits, want %d (its journaled pre-kill cells)", final.ID, final.CacheHits, preKilled)
		}
		gotJSONL, gotSummary := artifacts(t, srv, final.ID)
		if gotJSONL != wantJSONL {
			t.Errorf("job %s: JSONL after kill-resume differs from uninterrupted run", final.ID)
		}
		if gotSummary != wantSummary {
			t.Errorf("job %s: summary after kill-resume differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", final.ID, gotSummary, wantSummary)
		}
		t.Logf("job %s: killed after %d of %d cells; resume completed the rest byte-identically",
			final.ID, final.CacheHits, final.Cells)
	}
}
