package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// reseeded is testCampaignParams under another seed: the same four cells,
// none of them in the cache of a server that ran testCampaignParams.
func reseeded(seed int) string {
	return strings.Replace(testCampaignParams, "seed = 7", fmt.Sprintf("seed = %d", seed), 1)
}

// cellStart is one cell attempt reaching the disrupt hook.
type cellStart struct {
	job   string
	shard int
}

// heldCells is the disrupt hook of heldServer: every cell attempt
// reports its start on started, then waits for a value on release,
// until releaseAll closes done.
type heldCells struct {
	started chan cellStart
	release chan struct{}
	done    chan struct{}
	once    sync.Once
}

// releaseAll lets every held cell, and every later one, run.
func (h *heldCells) releaseAll() { h.once.Do(func() { close(h.done) }) }

// heldServer opens a server whose cell attempts are held by the returned
// hook. When the test ends, pass or fail, every cell is released and the
// server closed.
func heldServer(t *testing.T, dir string, workers int) (*Server, *heldCells) {
	t.Helper()
	h := &heldCells{started: make(chan cellStart), release: make(chan struct{}), done: make(chan struct{})}
	srv, err := NewServer(Config{StateDir: dir, Workers: workers, Policy: testPolicy,
		disrupt: func(job string, shard, _ int) error {
			select {
			case h.started <- cellStart{job, shard}:
			case <-h.done:
			}
			select {
			case <-h.release:
			case <-h.done:
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.releaseAll()
		srv.Close()
	})
	return srv, h
}

// nextStart waits for the next cell to start.
func nextStart(t *testing.T, started <-chan cellStart) cellStart {
	t.Helper()
	select {
	case s := <-started:
		return s
	case <-time.After(time.Minute):
		t.Fatal("no cell started within a minute")
		return cellStart{}
	}
}

// TestServerCellsStartInSubmissionOrder: a later job's cell never starts
// while an earlier job still has an unstarted cell. Each cell is held
// until the test releases it, one at a time, so each release frees one
// slot and exactly one cell starts on it: that cell must be the first
// job's until all four of its cells have started.
func TestServerCellsStartInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, h := heldServer(t, t.TempDir(), workers)
			var ids []string
			for _, params := range []string{testCampaignParams, reseeded(8)} {
				st, err := srv.Submit(KindCampaign, params)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
			}
			slots := cap(srv.slots)
			var order []cellStart
			for range slots {
				order = append(order, nextStart(t, h.started))
			}
			for len(order) < 8 {
				h.release <- struct{}{}
				order = append(order, nextStart(t, h.started))
			}
			h.releaseAll()
			for k, s := range order {
				if want := ids[k/4]; s.job != want {
					t.Fatalf("cell start %d was %s shard %d, want a cell of %s; order %v", k, s.job, s.shard, want, order)
				}
			}
			for _, id := range ids {
				if st := waitDone(t, srv, id); st.Status != StatusDone {
					t.Fatalf("job %+v, want done", st)
				}
			}
		})
	}
}

// TestServerCachedJobSkipsQueue: a resubmission whose every cell is
// cached settles while a fresh job holds the slots and another waits
// queued behind it. It journals its running and terminal status and
// reports the cache hits.
func TestServerCachedJobSkipsQueue(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			srv, h := heldServer(t, dir, workers)
			warm, err := srv.Submit(KindCampaign, testCampaignParams)
			if err != nil {
				t.Fatal(err)
			}
			for range 4 {
				nextStart(t, h.started)
				h.release <- struct{}{}
			}
			waitDone(t, srv, warm.ID)

			var fresh []string
			for _, seed := range []int{8, 9} {
				st, err := srv.Submit(KindCampaign, reseeded(seed))
				if err != nil {
					t.Fatal(err)
				}
				fresh = append(fresh, st.ID)
			}
			nextStart(t, h.started) // the first fresh job holds a slot
			cached, err := srv.Submit(KindCampaign, testCampaignParams+"campaign.parallelism = 8\n")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			final, err := srv.WaitJob(ctx, cached.ID)
			if err != nil {
				t.Fatalf("cached job never settled behind the held fresh job: %v (%+v)", err, final)
			}
			if final.Status != StatusDone || final.CacheHits != 4 {
				t.Fatalf("cached job %+v, want done with 4 cache hits", final)
			}
			for k, id := range fresh {
				st, _ := srv.Job(id)
				if want := []string{StatusRunning, StatusQueued}[k]; st.Status != want {
					t.Fatalf("fresh job %+v when the cached one settled, want %s", st, want)
				}
			}
			rep, err := ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Jobs[len(rep.Jobs)-1]; got.ID != cached.ID || got.Status != StatusDone {
				t.Fatalf("journal has the cached job as %+v, want done", got)
			}

			h.releaseAll()
			for _, id := range fresh {
				if st := waitDone(t, srv, id); st.Status != StatusDone {
					t.Fatalf("fresh job %+v, want done", st)
				}
			}
		})
	}
}

// TestServerCloseLeavesWaitingJobQueued: a job that waits for a slot when
// the server closes stays queued, in memory and in the journal, while the
// job whose cells hold the slots finishes them and completes.
func TestServerCloseLeavesWaitingJobQueued(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			srv, h := heldServer(t, dir, workers)
			// One cell per slot: once they have all started, the first job
			// starts no further cell and the second waits for a slot.
			slots := cap(srv.slots)
			systems := []string{"none", "svo"}[:slots]
			first, err := srv.Submit(KindCampaign, fmt.Sprintf(
				"campaign.presets = headon\ncampaign.systems = %s\ncampaign.samples = 3\n", strings.Join(systems, ", ")))
			if err != nil {
				t.Fatal(err)
			}
			waiting, err := srv.Submit(KindCampaign, testCampaignParams)
			if err != nil {
				t.Fatal(err)
			}
			for range slots {
				nextStart(t, h.started)
			}
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			<-srv.drain
			h.releaseAll()
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if st, _ := srv.Job(first.ID); st.Status != StatusDone {
				t.Errorf("first job %+v after Close, want its started cells finished and the job done", st)
			}
			if st, _ := srv.Job(waiting.ID); st.Status != StatusQueued || st.Completed != 0 {
				t.Errorf("waiting job %+v after Close, want queued", st)
			}
			rep, err := ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Jobs) != 2 || rep.Jobs[1].Status != StatusQueued {
				t.Fatalf("journal jobs %+v, want the waiting job queued", rep.Jobs)
			}
		})
	}
}
