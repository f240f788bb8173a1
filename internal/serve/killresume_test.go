package serve

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// killCampaignParams is the campaign the kill-resume test interrupts:
// enough cells that a SIGKILL reliably lands mid-campaign.
const killCampaignParams = `
campaign.name = kill-resume
campaign.presets = all
campaign.systems = none, svo
campaign.samples = 4
campaign.seed = 11
`

// TestServeKillHelper is the child half of TestKillResumeByteIdentity:
// re-executed as a subprocess, it opens a deliberately slow server over
// the handed-down state dir, submits the campaign, and blocks until the
// parent SIGKILLs it — no cleanup, no flushing, the crash is real.
func TestServeKillHelper(t *testing.T) {
	if os.Getenv("SERVE_KILL_HELPER") != "1" {
		t.Skip("helper process for TestKillResumeByteIdentity")
	}
	srv, err := NewServer(Config{
		StateDir: os.Getenv("SERVE_KILL_DIR"),
		Workers:  1,
		// Pace the cells so the parent can observe progress and kill us
		// mid-campaign.
		disrupt: func(shard, attempt int) error { time.Sleep(30 * time.Millisecond); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(KindCampaign, killCampaignParams); err != nil {
		t.Fatal(err)
	}
	select {} // hold the process open until SIGKILL
}

// TestKillResumeByteIdentity is the crash-safety acceptance gate: a
// server SIGKILLed mid-campaign — no deferred cleanup runs — and
// restarted over the same state dir finishes the job from its journal,
// and the final JSONL and summary artifacts are byte-identical to an
// uninterrupted in-process run of the same spec.
func TestKillResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	wantJSONL, wantSummary := reference(t, killCampaignParams)
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestServeKillHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "SERVE_KILL_HELPER=1", "SERVE_KILL_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for at least two journaled cells, then pull the trigger.
	journal := filepath.Join(dir, JournalFile)
	deadline := time.Now().Add(time.Minute)
	for {
		if data, err := os.ReadFile(journal); err == nil {
			if bytes.Count(data, []byte(`"type":"cell"`)) >= 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper never journaled two cells; output:\n%s", out.String())
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
	if len(rep.Jobs) != 1 {
		t.Fatalf("journal replayed %d jobs, want 1; output:\n%s", len(rep.Jobs), out.String())
	}
	if terminal(rep.Jobs[0].Status) {
		t.Fatalf("job already %s before the kill — helper pacing too fast", rep.Jobs[0].Status)
	}
	preKilled := len(rep.Cells)

	srv := newTestServer(t, dir, nil)
	defer srv.Close()
	final := waitDone(t, srv, rep.Jobs[0].ID)
	if final.Status != StatusDone {
		t.Fatalf("resumed job status %+v, want done", final)
	}
	if final.CacheHits < preKilled {
		t.Errorf("resumed job reports %d cache hits, want >= %d (the journaled pre-kill cells)", final.CacheHits, preKilled)
	}
	gotJSONL, gotSummary := artifacts(t, srv, final.ID)
	if gotJSONL != wantJSONL {
		t.Errorf("JSONL after kill-resume differs from uninterrupted run")
	}
	if gotSummary != wantSummary {
		t.Errorf("summary after kill-resume differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", gotSummary, wantSummary)
	}
	t.Logf("killed after %d of %d cells; resume completed the remaining %d byte-identically",
		preKilled, final.Cells, final.Cells-preKilled)
}
