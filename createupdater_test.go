package disc

// CreateUpdater's crash-safety properties (`make crash-props`): a
// durable create is the batch seed plus one birth snapshot, so it must
// select exactly what NewUpdater selects, recover to the full seed with
// or without its log, continue the log id space at n, and leave
// nothing behind when it fails.

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"github.com/discdiversity/disc/internal/faultio"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/wal"
)

// createSeed draws n clustered 2-d points: dense enough at radius 0.05
// that components hold many points.
func createSeed(seed uint64, n int) []Point {
	rng := rand.New(rand.NewPCG(seed, 7))
	pts := make([]Point, n)
	for i := range pts {
		c := float64(rng.IntN(5)) * 0.2
		pts[i] = Point{c + 0.1*rng.Float64(), c + 0.1*rng.Float64()}
	}
	return pts
}

// dirEntries lists a directory's file names.
func dirEntries(t *testing.T, dir string) []string {
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

// assertSameState checks that got holds exactly the points of want
// under the same ids and publishes the same selection, in the same
// batch output order.
func assertSameState(t *testing.T, got, want *Updater, ctx string) {
	t.Helper()
	if got.Len() != want.Len() || got.live.Slots() != want.live.Slots() {
		t.Fatalf("%s: %d live of %d slots, want %d of %d", ctx, got.Len(), got.live.Slots(), want.Len(), want.live.Slots())
	}
	for id := 0; id < want.live.Slots(); id++ {
		if got.Alive(id) != want.Alive(id) || !reflect.DeepEqual(got.Point(id), want.Point(id)) {
			t.Fatalf("%s: id %d is %v (alive %v), want %v (alive %v)", ctx, id, got.Point(id), got.Alive(id), want.Point(id), want.Alive(id))
		}
	}
	if got.Size() != want.Size() || !reflect.DeepEqual(got.Selection(), want.Selection()) {
		t.Fatalf("%s: selection %v, want %v", ctx, got.Selection(), want.Selection())
	}
	if !reflect.DeepEqual(got.live.OrderedSelection(), want.live.OrderedSelection()) {
		t.Fatalf("%s: ordered selection differs", ctx)
	}
}

func TestCreateUpdaterMatchesNewUpdater(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n    int
		r    float64
	}{{1, 1, 0.05}, {2, 40, 0.05}, {3, 600, 0.05}, {4, 600, 0.01}} {
		pts := createSeed(tc.seed, tc.n)
		dir := t.TempDir()
		u, err := CreateUpdater(filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal"), pts, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewUpdater(pts, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, u, ref, "create vs NewUpdater")
		if !u.Durable() || u.Pending() != 0 {
			t.Fatalf("created updater: durable %v, pending %d", u.Durable(), u.Pending())
		}
		if err := u.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCreateUpdaterRecovers: the birth snapshot is at log epoch 0 and
// the log next to it is empty; a restart recovers the full seed, the
// log id space continues at n, and the first Checkpoint moves to
// epoch 1 and recovers too.
func TestCreateUpdaterRecovers(t *testing.T) {
	const r = 0.05
	pts := createSeed(5, 400)
	n := len(pts)
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
	u, err := CreateUpdater(snapPath, walPath, pts, r, WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewUpdater(pts, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := dirEntries(t, dir); !reflect.DeepEqual(got, []string{"d.discsnap", "d.wal.00000000-00000001"}) {
		t.Fatalf("files after create: %v", got)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.WALEpoch != 0 || s.N != n || s.GraphRadius != r {
		t.Fatalf("birth snapshot: epoch %d, n %d, radius %g", s.WALEpoch, s.N, s.GraphRadius)
	}
	u.Close()

	u, err = OpenUpdater(snapPath, walPath, r)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, u, ref, "recovered create")
	extra := Point{0.95, 0.05}
	id, err := u.Insert(extra)
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Fatalf("first insert after recovery got id %d, want %d", id, n)
	}
	if _, err := ref.Insert(extra); err != nil {
		t.Fatal(err)
	}
	ref.Flush()
	u.Close()

	// The logged insert replays onto id n over the birth snapshot.
	u, err = OpenUpdater(snapPath, walPath, r)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, u, ref, "replayed insert")
	if err := u.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), u.Selection()...)
	u.Close()
	if data, err = os.ReadFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if s, err = snap.Read(bytes.NewReader(data)); err != nil || s.WALEpoch != 1 {
		t.Fatalf("first checkpoint: epoch %v, err %v; want epoch 1", s.WALEpoch, err)
	}
	u, err = OpenUpdater(snapPath, walPath, r)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Len() != n+1 || !reflect.DeepEqual(u.Selection(), want) {
		t.Fatalf("after checkpoint: %d live, selection %v; want %d, %v", u.Len(), u.Selection(), n+1, want)
	}
}

// TestCreateUpdaterSnapshotWithoutLog: a process that dies between the
// birth snapshot's rename and the log's creation leaves the snapshot
// alone. The create has committed, so reopening recovers the full seed
// and creates the epoch-0 log.
func TestCreateUpdaterSnapshotWithoutLog(t *testing.T) {
	const r = 0.05
	pts := createSeed(6, 300)
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
	u, err := CreateUpdater(snapPath, walPath, pts, r)
	if err != nil {
		t.Fatal(err)
	}
	u.Close()
	if err := os.Remove(walPath + ".00000000-00000001"); err != nil {
		t.Fatal(err)
	}
	ref, err := NewUpdater(pts, r)
	if err != nil {
		t.Fatal(err)
	}
	u, err = OpenUpdater(snapPath, walPath, r)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	assertSameState(t, u, ref, "snapshot without log")
	if id, err := u.Insert(Point{0.5, 0.9}); err != nil || id != len(pts) {
		t.Fatalf("insert after recovery: id %d, err %v; want id %d", id, err, len(pts))
	}
}

// TestCreateUpdaterEmptySeed: an empty create writes no snapshot, only
// an empty epoch-0 log, as opening fresh paths always has.
func TestCreateUpdaterEmptySeed(t *testing.T) {
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
	u, err := CreateUpdater(snapPath, walPath, nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 0 || !u.Durable() {
		t.Fatalf("empty create: %d live, durable %v", u.Len(), u.Durable())
	}
	u.Close()
	if got := dirEntries(t, dir); !reflect.DeepEqual(got, []string{"d.wal.00000000-00000001"}) {
		t.Fatalf("files after empty create: %v", got)
	}
	fresh := t.TempDir()
	v, err := OpenUpdater(filepath.Join(fresh, "d.discsnap"), filepath.Join(fresh, "d.wal"), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	created, _ := os.ReadFile(walPath + ".00000000-00000001")
	opened, _ := os.ReadFile(filepath.Join(fresh, "d.wal.00000000-00000001"))
	if len(created) == 0 || !reflect.DeepEqual(created, opened) {
		t.Fatalf("empty create's log (%d bytes) differs from a fresh open's (%d bytes)", len(created), len(opened))
	}
	u, err = OpenUpdater(snapPath, walPath, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if id, err := u.Insert(Point{1, 2}); err != nil || id != 0 {
		t.Fatalf("first insert: id %d, err %v", id, err)
	}
}

// TestCreateUpdaterFailureLeavesNothing: a create that fails — the
// birth snapshot's temp file hits ENOSPC, or the log cannot be created
// after the snapshot committed — returns the error and leaves no file,
// so a retry with the same paths succeeds.
func TestCreateUpdaterFailureLeavesNothing(t *testing.T) {
	for _, rule := range []*faultio.Rule{
		{Op: faultio.OpWrite, PathContains: ".discsnap.tmp", Err: syscall.ENOSPC},
		{Op: faultio.OpSync, PathContains: "d.wal.", Err: syscall.EIO},
	} {
		dir := t.TempDir()
		snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
		fsys := faultio.NewDirFS(rule)
		pts := createSeed(8, 200)
		if _, err := CreateUpdater(snapPath, walPath, pts, 0.05, WithStorageFS(fsys)); !errors.Is(err, rule.Err) {
			t.Fatalf("%v: create err = %v, want %v", rule, err, rule.Err)
		}
		if fsys.Fired() == 0 {
			t.Fatalf("%v: rule never fired", rule)
		}
		if got := dirEntries(t, dir); len(got) != 0 {
			t.Fatalf("%v: failed create left %v", rule, got)
		}
		fsys.ClearRules()
		u, err := CreateUpdater(snapPath, walPath, pts, 0.05, WithStorageFS(fsys))
		if err != nil {
			t.Fatalf("%v: retry: %v", rule, err)
		}
		if u.Len() != len(pts) {
			t.Fatalf("%v: retry holds %d points, want %d", rule, u.Len(), len(pts))
		}
		u.Close()
	}
}

// TestCreateUpdaterRefusesExistingState: creating over a snapshot or a
// log would overwrite or extend state the create does not own.
func TestCreateUpdaterRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
	u, err := CreateUpdater(snapPath, walPath, createSeed(9, 50), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	u.Close()
	before, _ := os.ReadFile(snapPath)
	if _, err := CreateUpdater(snapPath, walPath, createSeed(10, 60), 0.05); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("create over a snapshot: err = %v, want fs.ErrExist", err)
	}
	if after, _ := os.ReadFile(snapPath); !reflect.DeepEqual(after, before) {
		t.Fatal("refused create changed the snapshot")
	}
	if _, err := CreateUpdater(filepath.Join(dir, "other.discsnap"), walPath, createSeed(10, 60), 0.05); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("create over a log: err = %v, want fs.ErrExist", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "other.discsnap")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused create wrote a snapshot: %v", err)
	}
}

// TestInsertRefusesNonFinite: a live insert of a NaN or infinite
// coordinate is refused before it reaches the state or the log, so the
// next insert still gets the next id and a reopen sees only it.
func TestInsertRefusesNonFinite(t *testing.T) {
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
	mem, err := NewUpdater(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := CreateUpdater(snapPath, walPath, []Point{{0, 0}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []*Updater{mem, dur} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := u.Insert(Point{0.5, v}); err == nil {
				t.Fatalf("insert of coordinate %g accepted", v)
			}
		}
	}
	if id, err := dur.Insert(Point{0.5, 0.5}); err != nil || id != 1 {
		t.Fatalf("insert after refusals = (%d, %v), want (1, nil)", id, err)
	}
	dur.Close()
	u, err := OpenUpdater(snapPath, walPath, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Len() != 2 {
		t.Fatalf("reopened with %d live points, want 2", u.Len())
	}
}

// TestReplayAcceptsLoggedNonFinite: logs written before live inserts
// refused non-finite coordinates may hold one. Replay still applies
// such a record, so those datasets keep recovering.
func TestReplayAcceptsLoggedNonFinite(t *testing.T) {
	const r = 0.1
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "d.discsnap"), filepath.Join(dir, "d.wal")
	log, _, err := wal.Open(walPath, wal.Options{Radius: r, Metric: Euclidean().Name()})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []Point{{0, 0}, {math.NaN(), 1}, {0.5, 0.5}} {
		if err := log.Append(wal.Op{Kind: wal.OpInsert, ID: int64(i), Point: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	u, err := OpenUpdater(snapPath, walPath, r)
	if err != nil {
		t.Fatalf("replaying a logged non-finite insert: %v", err)
	}
	defer u.Close()
	if u.Len() != 3 {
		t.Fatalf("replayed %d live points, want 3", u.Len())
	}
}
