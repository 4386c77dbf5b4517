package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// slowReplica slows one shard of the transport it wraps: every nth exchange
// to that shard waits delay first, cut short when the attempt's context is
// done (a hedge loser is cancelled). It counts every exchange.
type slowReplica struct {
	fleet.Transport
	shard     int
	nth       uint64
	delay     time.Duration
	calls     atomic.Uint64 // to the slow shard
	exchanges atomic.Uint64 // to any shard
}

func (t *slowReplica) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	t.exchanges.Add(1)
	if shard == t.shard && t.calls.Add(1)%t.nth == 0 {
		timer := time.NewTimer(t.delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return 0, respBuf, ctx.Err()
		}
	}
	return t.Transport.Exchange(ctx, shard, method, path, body, respBuf)
}

// BenchmarkHedgeTail measures what hedged GETs buy and cost: a 3-shard
// loopback ring at R=2 whose shard 0 takes 5 ms over 5% of its exchanges,
// driven by four closed-loop callers, with hedging off, fixed at 1 ms and
// auto (the attempt-latency p99). It reports the request latency quantiles
// the callers saw and the shard exchanges per request; the hedge is kept
// while it cuts p99 at least 2x for at most 10% more exchanges
// (ARCHITECTURE.md §5). Not gated: run it with -benchtime=20000x or more so
// the p999 means something.
func BenchmarkHedgeTail(b *testing.B) {
	rec := shardTestRec(b)
	var reqs []*http.Request
	for i := 0; i < 96; i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/suggest?q=o2&q=w%d", i), nil))
	}
	for _, mode := range []struct {
		name  string
		hedge time.Duration
	}{{"off", 0}, {"fixed1ms", time.Millisecond}, {"auto", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			handlers := make([]http.Handler, 3)
			for i := range handlers {
				handlers[i] = serve.New(rec, serve.Options{})
			}
			tp := &slowReplica{Transport: fleet.NewLoopbackTransport(handlers...), nth: 20, delay: 5 * time.Millisecond}
			router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), tp, fleet.RouterOptions{Replicas: 2, HedgeAfter: mode.hedge})
			if err != nil {
				b.Fatal(err)
			}
			rr := &discardResponse{header: make(http.Header, 8)}
			for _, req := range reqs { // warm the shard caches
				router.ServeHTTP(rr, req)
			}
			tp.exchanges.Store(0)

			const callers = 4
			lat := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rr := &discardResponse{header: make(http.Header, 8)}
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						start := time.Now()
						router.ServeHTTP(rr, reqs[i%int64(len(reqs))])
						lat[i] = time.Since(start)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(lat)
			q := func(p float64) float64 { return float64(lat[int(p*float64(len(lat)-1))].Nanoseconds()) / 1e3 }
			b.ReportMetric(q(0.50), "p50-us")
			b.ReportMetric(q(0.99), "p99-us")
			b.ReportMetric(q(0.999), "p999-us")
			b.ReportMetric(float64(tp.exchanges.Load())/float64(b.N), "exchanges/req")
		})
	}
}
