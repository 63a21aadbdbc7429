package mlaas

import (
	"context"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"fxhenn/internal/hecnn"
	"fxhenn/internal/registry"
)

// TestMain keeps every test off the process limit: the servers tests
// build with NewServerWithConfig report to processMemory, whose setter
// here only reads "no limit". The memory tests give their own plans a
// fakeLimit, or the real setter only where the plan must leave the limit
// alone.
func TestMain(m *testing.M) {
	processMemory.setLimit = func(int64) int64 { return math.MaxInt64 }
	os.Exit(m.Run())
}

// fakeLimit is a process limit that records every value a plan sets.
type fakeLimit struct {
	mu  sync.Mutex
	cur int64
	set []int64
}

func (f *fakeLimit) setLimit(v int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.cur
	if v >= 0 {
		f.cur = v
		f.set = append(f.set, v)
	}
	return old
}

func (f *fakeLimit) sets() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.set)
}

// planLimit is the limit the plan's formula gives for its resident sum.
func planLimit(resident int64) int64 {
	return max(resident+resident/4+64<<20, 256<<20)
}

// residentSum snapshots the plan's resident sum.
func (p *memPlan) residentSum() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// TestMemoryPlanLimitFollowsResident: the limit is the formula of the
// resident sum, is set only when it changes, and goes back to the limit
// from before once no resident byte is left.
func TestMemoryPlanLimitFollowsResident(t *testing.T) {
	fl := &fakeLimit{cur: math.MaxInt64}
	p := newMemPlan(fl.setLimit)
	m := p.open(nil)
	if len(fl.sets()) != 0 {
		t.Fatalf("an empty plan set %v", fl.sets())
	}
	const mib = 1 << 20
	m.change(0, 100*mib)
	m.change(0, 0)
	m.change(0, 400*mib)
	m.change(0, -500*mib)
	want := []int64{256 * mib, planLimit(500 * mib), math.MaxInt64}
	if got := fl.sets(); !slices.Equal(got, want) {
		t.Fatalf("limits set %v, want %v", got, want)
	}
}

// TestMemoryPlanKeepsOperatorLimit: a limit that was set before the plan
// first looked is never changed. Under GOMEMLIMIT the plan drives the
// real setter, so the environment's limit is the one kept.
func TestMemoryPlanKeepsOperatorLimit(t *testing.T) {
	fl := &fakeLimit{cur: 2 << 30}
	set := fl.setLimit
	if before := debug.SetMemoryLimit(-1); before != math.MaxInt64 {
		set = debug.SetMemoryLimit
		fl.cur = before
	}
	var sets int
	p := newMemPlan(func(v int64) int64 {
		if v >= 0 {
			sets++
		}
		return set(v)
	})
	m := p.open(nil)
	m.change(1, 0)
	m.change(-1, 1<<30)
	m.close()
	if sets != 0 {
		t.Fatalf("the plan set the limit %d times over an operator's limit", sets)
	}
	if got := set(-1); got != fl.cur {
		t.Fatalf("limit %d, want the operator's %d", got, fl.cur)
	}
}

// TestMemoryPlanNoLimitWhileBuilding: from the start of a runtime's build
// to its end the process runs at the limit from before the plan. Building
// a second server while the first serves lifts the first one's limit for
// the build.
func TestMemoryPlanNoLimitWhileBuilding(t *testing.T) {
	fx := newFixture(t)
	fl := &fakeLimit{cur: math.MaxInt64}
	p := newMemPlan(fl.setLimit)
	s1 := newServer(p, fx.params, fx.henet, fx.rlk, fx.rtk, Config{})
	if got, want := fl.sets(), []int64{planLimit(s1.def.resident)}; !slices.Equal(got, want) {
		t.Fatalf("first build set %v, want only %v at its end", got, want)
	}
	s2 := newServer(p, fx.params, fx.henet, fx.rlk, fx.rtk, Config{})
	want := []int64{planLimit(s1.def.resident), math.MaxInt64, planLimit(s1.def.resident + s2.def.resident)}
	if got := fl.sets(); !slices.Equal(got, want) {
		t.Fatalf("second build set %v, want %v", got, want)
	}
}

// TestMemoryPlanNoLimitWhileTenantBuilds: a registry tenant's build runs
// with no limit from its ModelBuilder on, the key ceremony being its
// heaviest part, although the default runtime keeps a limit in force
// around it.
func TestMemoryPlanNoLimitWhileTenantBuilds(t *testing.T) {
	fx := newFixture(t)
	fl := &fakeLimit{cur: math.MaxInt64}
	p := newMemPlan(fl.setLimit)
	reg := registry.New(registry.NewMemStore())
	rec := registry.Record{Tenant: "alice", Model: "tiny", WeightSeed: 100, KeySeed: 101}
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	var during []int64
	build := func(rec registry.Record) (*TenantModel, error) {
		during = append(during, fl.cur)
		return StandardCatalog()(rec)
	}
	s := newServer(p, fx.params, fx.henet, fx.rlk, fx.rtk, Config{Registry: reg, Models: build})
	before := planLimit(s.def.resident)
	if fl.cur != before {
		t.Fatalf("limit %d before the tenant build, want %d", fl.cur, before)
	}
	rec, err := reg.Lookup("alice")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := s.tenants.runtime(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(during, []int64{math.MaxInt64}) {
		t.Fatalf("the ModelBuilder ran under limits %v, want none", during)
	}
	if want := planLimit(s.def.resident + rt.resident); fl.cur != want {
		t.Fatalf("limit %d after the tenant build, want %d", fl.cur, want)
	}
}

// TestMemoryPlanSumsServers: two servers' resident bytes add up in one
// plan, each server's Shutdown takes out exactly its own, and a runtime
// released after its server's Shutdown takes out nothing more.
func TestMemoryPlanSumsServers(t *testing.T) {
	fx := newFixture(t)
	fl := &fakeLimit{cur: math.MaxInt64}
	p := newMemPlan(fl.setLimit)
	s1 := newServer(p, fx.params, fx.henet, fx.rlk, fx.rtk, Config{})
	s2 := newServer(p, fx.params, fx.henet, fx.rlk, fx.rtk, Config{})
	if r := p.residentSum(); r != s1.def.resident+s2.def.resident || s1.def.resident <= 0 {
		t.Fatalf("plan resident %d, want %d + %d", r, s1.def.resident, s2.def.resident)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r := p.residentSum(); r != s2.def.resident {
		t.Fatalf("after s1's shutdown: resident %d, want %d", r, s2.def.resident)
	}
	s1.def.release()
	if r := p.residentSum(); r != s2.def.resident {
		t.Fatalf("after a release on the closed share: resident %d, want %d", r, s2.def.resident)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r := p.residentSum(); r != 0 || fl.cur != math.MaxInt64 {
		t.Fatalf("after both shutdowns: resident %d limit %d, want 0 and no limit", r, fl.cur)
	}
}

// TestMemoryResidentIsTableAndKeyViews: a runtime's resident bytes are
// exactly its operand table (PlanCacheBytes) plus the rows of its level
// views — each view at level l holds l digits of l+1 rows in each of its
// two polynomials.
func TestMemoryResidentIsTableAndKeyViews(t *testing.T) {
	fx := newFixture(t)
	p := newMemPlan((&fakeLimit{cur: math.MaxInt64}).setLimit)
	s := newServer(p, fx.params, fx.henet, fx.rlk, fx.rtk, Config{})
	top := fx.params.MaxLevel()
	rowBytes := int64(fx.params.N()) * 8
	want := hecnn.PlanCacheBytes(fx.henet, fx.params, top)
	rlk, rtk := fx.henet.KeyViews(fx.params, top, fx.rlk, fx.rtk)
	views := []int{rlk.Level()}
	for _, swk := range rtk.Keys {
		views = append(views, swk.Level())
	}
	for _, l := range views {
		want += 2 * int64(l*(l+1)) * rowBytes
	}
	if s.def.resident != want {
		t.Fatalf("resident %d, want table + key views %d", s.def.resident, want)
	}
	if r := p.residentSum(); r != want {
		t.Fatalf("plan resident %d, want %d", r, want)
	}
}
