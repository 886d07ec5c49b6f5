package main

import (
	"context"
	"testing"
)

// TestRoundSplitsColdAndWarm runs one round on a fresh manager: the
// cold half meets the empty probe cache and invokes the applications,
// the warm half repeats every job and is served from the cache alone.
func TestRoundSplitsColdAndWarm(t *testing.T) {
	ctx := context.Background()
	d, err := startDaemon(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"enki/recent_posts", "enki/pages_index"}
	rs := runRound(ctx, d, apps, 3, nil)
	if err := d.stop(ctx); err != nil {
		t.Fatal(err)
	}
	if len(rs.cold) != len(apps) || len(rs.warm) != len(apps) {
		t.Fatalf("round has %d cold and %d warm jobs, want %d each", len(rs.cold), len(rs.warm), len(apps))
	}
	for i, a := range apps {
		c, w := rs.cold[i], rs.warm[i]
		if c.err != nil || w.err != nil {
			t.Fatalf("%s: cold error %v, warm error %v", a, c.err, w.err)
		}
		if c.app != a || w.app != a {
			t.Errorf("job %d is %s cold and %s warm, want %s", i, c.app, w.app, a)
		}
		if c.res.AppInvocations == 0 {
			t.Errorf("%s: cold job ran no application", a)
		}
		if w.res.AppInvocations != 0 || w.res.DiskCacheHits == 0 {
			t.Errorf("%s: warm job ran %d invocations with %d disk hits, want 0 and some",
				a, w.res.AppInvocations, w.res.DiskCacheHits)
		}
	}
	if rs.cacheBytes == 0 {
		t.Error("the cold half wrote nothing to the probe cache")
	}
}
