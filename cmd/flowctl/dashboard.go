package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	apiv1 "repro/api/v1"
	"repro/client"
	"repro/internal/monitor"
)

// cmdDashboard renders Flower's all-in-one-place monitoring view (§3.4):
// one consolidated text dashboard over every platform of a flow, fetched
// from a running flowerd (-url -flow). -follow re-renders it live.
func cmdDashboard(args []string) {
	fs, url := remoteFlags("dashboard")
	id := fs.String("flow", "", "with -url: flow id (required)")
	window := fs.Duration("window", 30*time.Minute, "dashboard window")
	follow := fs.Bool("follow", false, "with -url: stream the flow's watch events and re-render on every advance")
	refresh := fs.Duration("refresh", time.Second, "with -follow: minimum interval between renders")
	fs.Parse(args)

	c, ctx := dial(*url), context.Background()
	needFlow(*id)
	if !*follow {
		if err := remoteDashboard(ctx, os.Stdout, c, *url, *id, *window); err != nil {
			log.Fatal(err)
		}
		return
	}
	// Follow mode: one watch stream instead of snapshot polling, surviving
	// daemon restarts through the SDK's auto-reconnect. Each flow.advanced
	// event invalidates the view; renders are throttled so a fast pacer
	// does not melt the terminal.
	render := func() {
		fmt.Print("\033[H\033[2J") // clear for the live view
		// A transient snapshot failure (daemon restarting mid-stream)
		// must not kill the live view: the watch iterator is already
		// reconnecting, so just try again on the next event.
		if err := remoteDashboard(ctx, os.Stdout, c, *url, *id, *window); err != nil {
			log.Printf("%v (retrying on next event)", err)
		}
	}
	render()
	w := c.WatchFlow(*id, client.WatchOptions{
		Types: []string{apiv1.EventFlowAdvanced, apiv1.EventFlowDeleted},
	})
	defer w.Close()
	last := time.Now()
	for {
		ev, err := w.Next(ctx)
		if err != nil {
			log.Fatalf("watch: %v", err)
		}
		if ev.Type == apiv1.EventFlowDeleted {
			fmt.Printf("\nflow %q was deleted; exiting\n", *id)
			return
		}
		// Throttle by waiting out the remainder of the interval rather
		// than dropping the event: the render after a burst's LAST
		// advance must happen, or the terminal would stay stale until
		// some future event arrived.
		if since := time.Since(last); since < *refresh {
			time.Sleep(*refresh - since)
		}
		last = time.Now()
		render()
	}
}

// remoteDashboard writes one frame of a served flow's dashboard.
func remoteDashboard(ctx context.Context, w io.Writer, c *client.Client, url, id string, window time.Duration) error {
	snap, err := c.Snapshot(ctx, id, window)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fmt.Fprintf(w, "flow %q on %s\n\n", id, url)
	if err := monitor.Render(w, snap); err != nil {
		return fmt.Errorf("dashboard: %w", err)
	}
	return nil
}
