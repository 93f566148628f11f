package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestExpositionProfileConcurrent: HTTP readers race the sampler ticks
// of a running simulation. Every request is rendered on the simulation
// thread — at the followed sampler's next tick while the run lasts, by
// ServeUntil after it — so /profile (folded text and JSON) and /metrics
// answer while the profiler keeps attributing, and every endpoint
// answers 503 before a run is followed. Run under -race.
func TestExpositionProfileConcurrent(t *testing.T) {
	e := newExposition()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	// afterRun renders requests the way deathbench does once its suite
	// is done, for as long as fn runs.
	afterRun := func(fn func()) {
		done, exited := make(chan struct{}), make(chan struct{})
		go func() {
			e.ServeUntil(done)
			close(exited)
		}()
		fn()
		close(done)
		<-exited
	}

	afterRun(func() {
		for _, path := range []string{"/metrics", "/snapshot", "/series", "/events", "/profile"} {
			if code, _ := get(path); code != 503 {
				t.Errorf("%s with no run followed: status %d, want 503", path, code)
			}
		}
	})

	eng := sim.NewEngine()
	s := sim.NewServer(eng, "s")
	p := NewProfiler()
	p.Attach(ResChip, "chip0", s)
	sam := NewSampler(10 * sim.Microsecond)
	uses := 0
	sam.AddCounter("uses", func() float64 { return float64(uses) })
	e.Follow(nil, sam, nil, p)

	const readers, perReader = 4, 25
	var answered atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				path := []string{"/profile", "/profile?format=json", "/metrics"}[(i+j)%3]
				if code, _ := get(path); code != 200 {
					t.Errorf("%s during the run: status %d, want 200", path, code)
				}
				answered.Add(1)
			}
		}()
	}
	sam.Start(eng)
	eng.Go(func(proc *sim.Proc) {
		for answered.Load() < readers*perReader {
			s.Use(2, "read", nil)
			uses++
			proc.Sleep(sim.Microsecond)
		}
		sam.Stop()
	})
	eng.Run()
	wg.Wait()

	afterRun(func() {
		if _, body := get("/profile"); body != fmt.Sprintf("chip;chip0;read %d\n", 2*uses) {
			t.Errorf("folded body = %q after %d uses", body, uses)
		}
		if _, body := get("/metrics"); !strings.Contains(body, "necro_uses ") {
			t.Errorf("/metrics missing the sampled counter:\n%s", body)
		}
	})
}
