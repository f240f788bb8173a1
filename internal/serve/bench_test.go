package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServeCellThroughput measures end-to-end service throughput in
// campaign cells per second: submit, journal, shard, execute, journal
// again, artifact. Each client submits a job and waits for it in a closed
// loop; with two clients, as in cabench's serve-mixed, one job's cells
// can run while another journals and writes its artifacts. Each job uses
// a fresh seed so the completed-cell cache never short-circuits the work
// being measured.
func BenchmarkServeCellThroughput(b *testing.B) {
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv, err := NewServer(Config{StateDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			const cellsPerJob = 4
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						params := fmt.Sprintf(`
campaign.name = bench
campaign.presets = headon, crossing
campaign.systems = none, svo
campaign.samples = 5
campaign.seed = %d
`, i)
						st, err := srv.Submit(KindCampaign, params)
						if err != nil {
							b.Error(err)
							return
						}
						final, err := srv.WaitJob(context.Background(), st.ID)
						if err != nil {
							b.Error(err)
							return
						}
						if final.Status != StatusDone {
							b.Errorf("job %s finished %s: %s", final.ID, final.Status, final.Error)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N*cellsPerJob)/time.Since(start).Seconds(), "cells/s")
		})
	}
}
