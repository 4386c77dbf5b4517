package main

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Ring shape of the router workloads: `cmd/serve -role router -shards 3
// -replicas 2` with its default -shard-timeout and hedging off.
const (
	ringShards   = 3
	ringReplicas = 2
	shardTimeout = 2 * time.Second
)

// newServeHandler builds the single-model handler chain exactly as
// cmd/serve's buildServeHandler does under `-model <path> -quiet -cache
// <cacheCap>`: one registry and one 512-trace tracer shared with the
// handler, default n, reload from the same file.
func newServeHandler(rec core.Recommender, modelPath string, cacheCap int) *serve.Handler {
	oreg := obs.NewRegistry()
	tracer := obs.NewTracer(512, oreg.Histogram("serve_http_request_us"))
	return serve.New(rec, serve.Options{
		DefaultN:      topN,
		CacheCapacity: cacheCap,
		Obs:           oreg,
		Tracer:        tracer,
		ReloadFunc:    func() (core.Recommender, error) { return core.LoadAnyPath(modelPath, core.LoadOptions{}) },
	})
}

// ring is the router workloads' handler chain with its parts kept reachable
// for the layer probes.
type ring struct {
	router *fleet.ShardRouter
	shards []*serve.Handler
	tr     *fleet.LoopbackTransport
}

// newRing builds what cmd/serve's buildRouterHandler builds for an integer
// -shards: N serve handlers over one model behind a loopback transport and a
// replicated consistent-hash router. The anti-entropy sweep cmd/serve also
// starts is a background goroutine outside the request path and is left
// out, so nothing but the caller runs during a lap.
func newRing(rec core.Recommender, modelPath string, tr func(*fleet.LoopbackTransport) fleet.Transport) (*ring, error) {
	r := &ring{}
	handlers := make([]http.Handler, ringShards)
	for i := range handlers {
		h := serve.New(rec, serve.Options{
			DefaultN:   topN,
			ReloadFunc: func() (core.Recommender, error) { return core.LoadAnyPath(modelPath, core.LoadOptions{}) },
		})
		r.shards = append(r.shards, h)
		handlers[i] = h
	}
	r.tr = fleet.NewLoopbackTransport(handlers...)
	var transport fleet.Transport = r.tr
	if tr != nil {
		transport = tr(r.tr)
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(ringShards, 0), transport, fleet.RouterOptions{
		Replicas:     ringReplicas,
		ShardTimeout: shardTimeout,
	})
	if err != nil {
		return nil, err
	}
	r.router = router
	return r, nil
}
