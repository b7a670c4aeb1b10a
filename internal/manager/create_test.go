package manager

// Durable creates: the seed is committed by one birth snapshot, so a
// create either leaves a complete dataset on disk or nothing at all.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/faultio"
	"github.com/discdiversity/disc/internal/telemetry"
)

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

// TestDurableCreateBadSeedLeavesNothing: a seed that cannot be
// maintained is refused before anything touches disk, so the name stays
// free — the retry succeeds — and a restart recovers only the retry.
func TestDurableCreateBadSeedLeavesNothing(t *testing.T) {
	bad := map[string][]disc.Point{
		"mixed dimension": {{0, 0}, {1, 1}, {5}},
		"NaN":             {{0, 0}, {math.NaN(), 1}},
		"infinite":        {{0, 0}, {1, math.Inf(-1)}},
	}
	for _, homes := range []bool{false, true} {
		for what, pts := range bad {
			dir := t.TempDir()
			cfg := fastCfg(dir)
			cfg.Homes = homes
			m := New(cfg)
			if _, err := m.Create("x", "euclidean", 2.0, pts); err == nil {
				t.Fatalf("homes=%v: create with a %s seed succeeded", homes, what)
			}
			if got := dirNames(t, dir); len(got) != 0 {
				t.Fatalf("homes=%v: rejected %s seed left %v on disk", homes, what, got)
			}
			d, err := m.Create("x", "euclidean", 2.0, seedPoints(5))
			if err != nil {
				t.Fatalf("homes=%v: retry after a %s seed: %v", homes, what, err)
			}
			if got := d.Info().Live; got != 5 {
				t.Fatalf("homes=%v: retry holds %d points, want 5", homes, got)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2 := New(cfg)
			if serving, err := m2.Recover(); err != nil || serving != 1 {
				t.Fatalf("homes=%v: Recover = (%d, %v), want (1, nil)", homes, serving, err)
			}
			d2, _ := m2.Get("x")
			if got := d2.Info().Live; got != 5 {
				t.Fatalf("homes=%v: recovered %d points, want 5", homes, got)
			}
			m2.Close()
		}
	}
}

// TestDurableCreateFsyncsConstant: under FsyncAlways a create costs a
// fixed number of log fsyncs whatever the seed size — the seed is one
// snapshot write, not one logged insert per point.
func TestDurableCreateFsyncsConstant(t *testing.T) {
	fsyncs := telemetry.Default().Counter("disc_wal_fsyncs_total", "")
	m := New(fastCfg(t.TempDir()))
	defer m.Close()
	var moved []uint64
	for _, n := range []int{20, 2000} {
		before := fsyncs.Value()
		if _, err := m.Create("n"+string(rune('a'+len(moved))), "euclidean", 2.0, seedPoints(n)); err != nil {
			t.Fatal(err)
		}
		moved = append(moved, fsyncs.Value()-before)
	}
	if moved[0] != moved[1] || moved[1] > 2 {
		t.Fatalf("create moved disc_wal_fsyncs_total by %v for 20 and 2000 points, want the same small constant", moved)
	}
}

// TestDurableCreateFailureLeavesNothing: ENOSPC on the birth snapshot's
// temp file fails the create and leaves no file (nor, with homes, the
// home directory); once space returns the same name creates.
func TestDurableCreateFailureLeavesNothing(t *testing.T) {
	for _, homes := range []bool{false, true} {
		dir := t.TempDir()
		fsys := faultio.NewDirFS(&faultio.Rule{Op: faultio.OpWrite, PathContains: ".discsnap.tmp", Err: syscall.ENOSPC})
		cfg := fastCfg(dir)
		cfg.Homes = homes
		cfg.FS = fsys
		m := New(cfg)
		if _, err := m.Create("x", "euclidean", 2.0, seedPoints(30)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("homes=%v: create under ENOSPC: err = %v", homes, err)
		}
		if got := dirNames(t, dir); len(got) != 0 {
			t.Fatalf("homes=%v: failed create left %v", homes, got)
		}
		fsys.ClearRules()
		if _, err := m.Create("x", "euclidean", 2.0, seedPoints(30)); err != nil {
			t.Fatalf("homes=%v: retry: %v", homes, err)
		}
		m.Close()
	}
}

// TestDurableCreateCrashWindows: a process that dies after the birth
// snapshot's rename but before the log exists has committed the create,
// so the boot scan finds the snapshot and recovers the full seed. One
// that dies before the rename leaves (with homes) an empty home
// directory, which is not a dataset: the scan skips it and the name
// can be created again.
func TestDurableCreateCrashWindows(t *testing.T) {
	for _, homes := range []bool{false, true} {
		dir := t.TempDir()
		cfg := fastCfg(dir)
		cfg.Homes = homes
		m := New(cfg)
		pts := seedPoints(40)
		d, err := m.Create("x", "euclidean", 2.0, pts)
		if err != nil {
			t.Fatal(err)
		}
		walPath := d.paths.wal
		m.Close()
		segs, _ := filepath.Glob(walPath + ".*")
		if len(segs) != 1 {
			t.Fatalf("homes=%v: want one log segment after create, have %v", homes, segs)
		}
		if err := os.Remove(segs[0]); err != nil {
			t.Fatal(err)
		}
		if homes {
			if err := os.Mkdir(filepath.Join(dir, "y"), 0o755); err != nil {
				t.Fatal(err)
			}
		}

		m2 := New(cfg)
		serving, err := m2.Recover()
		if err != nil || serving != 1 {
			t.Fatalf("homes=%v: Recover = (%d, %v), want (1, nil)", homes, serving, err)
		}
		d2, err := m2.Get("x")
		if err != nil {
			t.Fatal(err)
		}
		u, err := d2.Updater()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := disc.NewUpdater(pts, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		if u.Len() != len(pts) || !reflect.DeepEqual(u.Selection(), ref.Selection()) {
			t.Fatalf("homes=%v: recovered %d points selecting %v, want %d selecting %v", homes, u.Len(), u.Selection(), len(pts), ref.Selection())
		}
		if homes {
			if _, err := m2.Get("y"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("empty home was recovered as a dataset: %v", err)
			}
			if _, err := m2.Create("y", "euclidean", 2.0, seedPoints(3)); err != nil {
				t.Fatalf("create over an empty home: %v", err)
			}
		}
		m2.Close()
	}
}

// TestDurableCreateConcurrentSameName: of several concurrent creates of
// one name, exactly one succeeds, and the dataset on disk is the
// winner's, whole.
func TestDurableCreateConcurrentSameName(t *testing.T) {
	dir := t.TempDir()
	m := New(fastCfg(dir))
	sizes := []int{50, 300, 1000, 2000}
	won := make(chan int, len(sizes))
	errs := make(chan error, len(sizes))
	for _, n := range sizes {
		go func(n int) {
			if _, err := m.Create("x", "euclidean", 2.0, seedPoints(n)); err != nil {
				errs <- err
				return
			}
			won <- n
		}(n)
	}
	winner := -1
	for range sizes {
		select {
		case n := <-won:
			if winner >= 0 {
				t.Fatalf("two concurrent creates of one name succeeded (%d and %d points)", winner, n)
			}
			winner = n
		case err := <-errs:
			if !errors.Is(err, ErrExists) {
				t.Fatalf("losing create err = %v, want ErrExists", err)
			}
		}
	}
	if winner < 0 {
		t.Fatal("no concurrent create succeeded")
	}
	m.Close()
	m2 := New(fastCfg(dir))
	defer m2.Close()
	if serving, err := m2.Recover(); err != nil || serving != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", serving, err)
	}
	d, _ := m2.Get("x")
	if got := d.Info().Live; got != winner {
		t.Fatalf("recovered %d points, want the winner's %d", got, winner)
	}
}
