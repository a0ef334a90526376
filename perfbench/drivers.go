package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tpcc"
)

// driverInput shapes the layer drivers like the workload: every field is
// read off the traced run.
type driverInput struct {
	seed       int64
	warehouses int  // TPC-C scale
	aggregate  bool // aggregate client tier (class-labelled arrivals)
	depth      int  // mean kernel pending-event depth, sampled per packet
	packet     int  // mean packet payload bytes
	history    int  // certifier history length at the end of the run
	inflight   int  // transactions in flight per site (Little's law)
	logs       [][]check.SiteLog
}

// driverResult is one driver's cost per operation.
type driverResult struct {
	nsPerOp, allocsPerOp float64
}

// driver times one layer's public API. Its metrics are name+"_ns"+per and
// name+"_allocs"+per.
type driver struct {
	name, per string
	run       func(in driverInput, budget time.Duration) (driverResult, error)
}

var drivers = []driver{
	{"sim.step", "", driveKernel},
	{"simnet.send", "", driveNet},
	{"gcs.tocast", "", driveGCS},
	{"dbsm.certify", "", driveCertify},
	{"db.lock", "", driveLocks},
	{"csrt.submit", "", driveCSRT},
	{"tpcc.generate", "", driveGenerate},
	{"check.logs", "_per_commit", driveCheck},
}

// measure runs op in doubling batches until the budget is spent and returns
// the cost per call of the last, largest batch.
func measure(budget time.Duration, op func() error) (driverResult, error) {
	if err := op(); err != nil { // warm caches and lazy state
		return driverResult{}, err
	}
	start := time.Now()
	var res driverResult
	for n := 1; ; n *= 2 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return driverResult{}, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		res = driverResult{float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)}
		if time.Since(start)+2*d > budget {
			return res, nil
		}
	}
}

// driveKernel times Schedule plus Step with the heap held at the workload's
// pending depth.
func driveKernel(in driverInput, budget time.Duration) (driverResult, error) {
	k := sim.NewKernel()
	rng := sim.NewRNG(in.seed)
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = rng.ExpDur(10 * sim.Millisecond)
	}
	fn := func() {}
	for i := 0; i < in.depth; i++ {
		k.Schedule(delays[i%len(delays)], fn)
	}
	i := 0
	return measure(budget, func() error {
		k.Schedule(delays[i%len(delays)], fn)
		i++
		if !k.Step() {
			return errors.New("kernel drained")
		}
		return nil
	})
}

// lan3 wires three hosts on one simulated LAN in multicast group 1.
func lan3(k *sim.Kernel, rng *sim.RNG) (*simnet.Network, []runtimeapi.NodeID, error) {
	net := simnet.NewNetwork(k, rng.Fork("net"))
	lan := net.NewLAN(simnet.DefaultLANConfig("bench"))
	members := []runtimeapi.NodeID{1, 2, 3}
	net.SetGroup(1, members)
	for _, id := range members {
		if _, err := net.NewHost(id, lan); err != nil {
			return nil, nil, err
		}
	}
	return net, members, nil
}

// driveNet times one multicast of a workload-sized packet to a 3-host group,
// through transmission and arrival at both receivers.
func driveNet(in driverInput, budget time.Duration) (driverResult, error) {
	k := sim.NewKernel()
	net, members, err := lan3(k, sim.NewRNG(in.seed))
	if err != nil {
		return driverResult{}, err
	}
	arrived := 0
	for _, id := range members {
		net.Host(id).SetDeliver(func(*simnet.Packet) { arrived++ })
	}
	data := make([]byte, in.packet)
	return measure(budget, func() error {
		want := arrived + len(members) - 1
		if err := net.Multicast(1, 1, data, 0); err != nil {
			return err
		}
		for k.Step() {
		}
		if arrived != want {
			return fmt.Errorf("%d arrivals, want %d", arrived, want)
		}
		return nil
	})
}

// driveGCS times one total-order multicast in a 3-stack group over simnet
// and csrt: cast from a real job, delivered at every member.
func driveGCS(in driverInput, budget time.Duration) (driverResult, error) {
	k := sim.NewKernel()
	rng := sim.NewRNG(in.seed)
	net, members, err := lan3(k, rng)
	if err != nil {
		return driverResult{}, err
	}
	var rts []*csrt.Runtime
	var stacks []*gcs.Stack
	delivered := 0
	for _, id := range members {
		rt := csrt.NewRuntime(k, id, &csrt.ModelProfiler{}, net.Port(id, 1400), csrt.DefaultCostParams(),
			rng.Fork(fmt.Sprintf("rt-%d", id)))
		rt.Bind(csrt.NewCPUSet(1, k, nil))
		net.Host(id).SetDeliver(func(pkt *simnet.Packet) { rt.Deliver(pkt.Src, pkt.Data) })
		st, err := gcs.New(rt, gcs.Config{Self: id, Members: members, Group: 1, UseMulticast: true})
		if err != nil {
			return driverResult{}, err
		}
		st.OnDeliver(func(gcs.Delivery) { delivered++ })
		st.Start()
		rts, stacks = append(rts, rt), append(stacks, st)
	}
	if err := k.RunUntil(100 * sim.Millisecond); err != nil {
		return driverResult{}, err
	}
	payload := make([]byte, in.packet)
	i := 0
	return measure(budget, func() error {
		want := delivered + len(members)
		n := i % len(stacks)
		i++
		accepted := true
		rts[n].CPUs().SubmitReal(func() { accepted = stacks[n].Multicast(payload) }, nil)
		for steps := 0; delivered < want; steps++ {
			if !k.Step() || steps > 1_000_000 || !accepted {
				return fmt.Errorf("cast not delivered (accepted %v, %d of %d deliveries)", accepted, delivered, want)
			}
		}
		return nil
	})
}

// updateTxns draws n update transactions from a generator at the workload's
// scale.
func updateTxns(in driverInput, n int) []*db.Txn {
	gen := tpcc.NewGenerator(1, in.warehouses, tpcc.DefaultCalibration(), sim.NewRNG(in.seed).Fork("gen"))
	rng := sim.NewRNG(in.seed).Fork("home")
	var out []*db.Txn
	for len(out) < n {
		t := gen.Next(rng.Intn(in.warehouses))
		if !t.ReadOnly && len(t.WriteSet) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// driveCertify times Certifier.Certify on TPC-C write-sets at the workload's
// history depth, each snapshot lagging by the in-flight count.
func driveCertify(in driverInput, budget time.Duration) (driverResult, error) {
	txns := updateTxns(in, 4096)
	certs := make([]dbsm.TxnCert, len(txns))
	for i, t := range txns {
		certs[i] = dbsm.TxnCert{Site: 1, ReadSet: t.ReadSet, WriteSet: t.WriteSet, WriteBytes: t.WriteBytes}
	}
	// The replicas run with unbounded history (no MaxHistory), so the
	// driver does too: it starts at the depth the run ended with and grows.
	c := dbsm.NewCertifier()
	tid := uint64(0)
	for c.HistoryLen() < in.history && tid < uint64(4*in.history) {
		t := &certs[tid%uint64(len(certs))]
		tid++
		t.TID, t.LastCommitted = tid, c.Seq()
		c.Certify(t)
	}
	lag := uint64(in.inflight)
	return measure(budget, func() error {
		t := &certs[tid%uint64(len(certs))]
		tid++
		t.TID, t.LastCommitted = tid, 0
		if s := c.Seq(); s > lag {
			t.LastCommitted = s - lag
		}
		c.Certify(t)
		return nil
	})
}

// driveLocks times AcquireAll plus ReleaseCommit with the workload's
// in-flight count of transactions holding their locks.
func driveLocks(in driverInput, budget time.Duration) (driverResult, error) {
	w := in.inflight
	txns := updateTxns(in, max(4*w, 256))
	granted := make([]bool, len(txns))
	grants := make([]func(), len(txns))
	for i := range grants {
		grants[i] = func() { granted[i] = true }
	}
	lm := db.NewLockManager()
	i := 0
	return measure(budget, func() error {
		s := i % len(txns)
		lm.AcquireAll(txns[s], grants[s])
		if j := i - w; j >= 0 {
			r := j % len(txns)
			if granted[r] {
				lm.ReleaseCommit(txns[r])
			} else {
				lm.RemoveWaiter(txns[r])
			}
			granted[r] = false
		}
		i++
		return nil
	})
}

// driveCSRT times one real job through CPUSet.SubmitReal, from submission
// to its completion callback.
func driveCSRT(in driverInput, budget time.Duration) (driverResult, error) {
	k := sim.NewKernel()
	rng := sim.NewRNG(in.seed)
	net, _, err := lan3(k, rng)
	if err != nil {
		return driverResult{}, err
	}
	rt := csrt.NewRuntime(k, 1, &csrt.ModelProfiler{}, net.Port(1, 1400), csrt.DefaultCostParams(), rng.Fork("rt"))
	cpus := csrt.NewCPUSet(1, k, nil)
	rt.Bind(cpus)
	done := 0
	job := func() { rt.Charge(50 * sim.Microsecond) }
	finish := func() { done++ }
	return measure(budget, func() error {
		want := done + 1
		cpus.SubmitReal(job, finish)
		for k.Step() {
		}
		if done != want {
			return errors.New("real job did not complete")
		}
		return nil
	})
}

// driveGenerate times building one transaction: Generator.Next under
// individual clients, NextOfClass with mix-weighted classes under the
// aggregate tier.
func driveGenerate(in driverInput, budget time.Duration) (driverResult, error) {
	cal := tpcc.DefaultCalibration()
	gen := tpcc.NewGenerator(1, in.warehouses, cal, sim.NewRNG(in.seed).Fork("gen"))
	rng := sim.NewRNG(in.seed).Fork("home")
	homes := make([]int, 4096)
	classes := make([]tpcc.ArrivalClass, len(homes))
	weights := cal.ArrivalProcess().Weights
	for i := range homes {
		homes[i] = rng.Intn(in.warehouses)
		x, acc := rng.Float64(), 0.0
		classes[i] = tpcc.NumArrivalClasses - 1
		for c := tpcc.ArrivalClass(0); c < tpcc.NumArrivalClasses; c++ {
			if acc += weights[c]; x < acc {
				classes[i] = c
				break
			}
		}
	}
	i := 0
	return measure(budget, func() error {
		s := i % len(homes)
		i++
		if in.aggregate {
			gen.NextOfClass(classes[s], homes[s])
		} else {
			gen.Next(homes[s])
		}
		return nil
	})
}

// driveCheck times the off-line safety check over the traced run's own
// commit logs, per committed entry of the reference logs.
func driveCheck(in driverInput, budget time.Duration) (driverResult, error) {
	commits := 0
	for _, group := range in.logs {
		longest := 0
		for _, s := range group {
			longest = max(longest, len(s.Entries))
		}
		commits += longest
	}
	if commits == 0 {
		return driverResult{}, errors.New("no commit logs")
	}
	res, err := measure(budget, func() error {
		for _, group := range in.logs {
			if v := check.Logs(group); v != nil {
				return v
			}
		}
		return nil
	})
	res.nsPerOp /= float64(commits)
	res.allocsPerOp /= float64(commits)
	return res, err
}
