package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pcmcomp/internal/obs"
)

// wantsSSE reports whether the request negotiated a streaming response
// (Accept: text/event-stream) on an /events endpoint.
func wantsSSE(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == "text/event-stream" {
			return true
		}
	}
	return false
}

// terminalEvent reports whether a timeline event type ends a stream: the
// job or sweep has reached a terminal state and no further events can
// arrive.
func terminalEvent(typ string) bool {
	return typ == "done" || typ == "failed" || typ == "canceled"
}

// streamEvents serves one SSE connection over a flight-recorder
// timeline: it atomically replays the retained history (trimmed past the
// client's Last-Event-ID on a resume) and then follows live events, with
// heartbeat comments every sseHeartbeat so idle streams survive proxies.
// Frames carry the event's sequence number as the SSE id, its timeline
// type as the event name, and the event document as JSON data. The
// stream ends on a terminal event (done/failed/canceled), on client
// disconnect, when the server begins draining, or when the subscription
// dropped events for a slow reader: the dropped event may be the terminal
// one, so the client must resume with Last-Event-ID and replay the
// retained history. The subscription is released on every exit path, so
// a vanished client cannot leak.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, tl *obs.Timeline) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	var afterSeq uint64
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		n, err := strconv.ParseUint(lastID, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "Last-Event-ID must be a decimal sequence number")
			return
		}
		afterSeq = n
	}

	replay, sub := tl.SubscribeReplay(afterSeq, 256)
	defer tl.Unsubscribe(sub)
	s.metrics.sseStarted()
	defer s.metrics.sseEnded()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeFrame := func(ev obs.SubEvent) bool {
		data, err := json.Marshal(ev.Event)
		if err != nil {
			data = []byte(fmt.Sprintf(`{"type":%q,"marshal_error":%q}`, ev.Event.Type, err.Error()))
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Event.Type, data)
		return terminalEvent(ev.Event.Type)
	}

	terminal := false
	for _, ev := range replay {
		if writeFrame(ev) {
			terminal = true
		}
	}
	fl.Flush()
	if terminal {
		return
	}

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drain:
			// Shutdown: close the stream so the listener's drain is not
			// held open by followers; clients reconnect elsewhere.
			fmt.Fprint(w, ": server draining\n\n")
			fl.Flush()
			return
		case ev := <-sub.C:
			if writeFrame(ev) {
				fl.Flush()
				return
			}
			// Drain whatever else is already buffered before flushing, so
			// a burst costs one flush.
			drained := false
			for !drained {
				select {
				case next := <-sub.C:
					if writeFrame(next) {
						fl.Flush()
						return
					}
				default:
					drained = true
				}
			}
			if sub.Missed() > 0 {
				fmt.Fprint(w, ": events dropped\n\n")
				fl.Flush()
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}
