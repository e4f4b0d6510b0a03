package pcmclient

import (
	"context"
	"encoding/json"
	"net/http"

	"pcmcomp/internal/fleetobs"
)

// FleetStatus fetches the coordinator's rolling fleet health snapshot
// (GET /v1/fleet/status): per-backend health and breaker state, queue
// depths, and latency quantiles and error rates over the last minute.
func (c *Client) FleetStatus(ctx context.Context) (*fleetobs.FleetSnapshot, error) {
	var snap fleetobs.FleetSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/fleet/status", nil, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// WatchFleet follows the fleet snapshot stream (GET /v1/fleet/status?
// watch=1 over SSE): onSnapshot receives each scrape's snapshot as it is
// published, and onEvent (optional) sees every raw timeline frame —
// including the target_down and target_up transitions. The fleet stream
// has no terminal event, so WatchFleet runs until the context is canceled (returned as ctx.Err())
// or the reconnect budget is exhausted.
func (c *Client) WatchFleet(ctx context.Context, onSnapshot func(*fleetobs.FleetSnapshot), onEvent func(TimelineEvent)) error {
	return c.watch(ctx, "/v1/fleet/status?watch=1", func(ev TimelineEvent) {
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Type != "snapshot" || onSnapshot == nil {
			return
		}
		var snap fleetobs.FleetSnapshot
		if err := json.Unmarshal([]byte(ev.Event.Msg), &snap); err == nil {
			onSnapshot(&snap)
		}
	})
}
