package qos

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/device"
	"bps/internal/faults"
	"bps/internal/fsim"
	"bps/internal/ioreq"
	"bps/internal/pfs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/trace"
	"bps/internal/workload"
)

// TenantSpec is one tenant's identity, contract, and workload in a
// multi-tenant run: a SeqRead-style sequential workload owned by the
// tenant, admitted through the controller's middleware.
type TenantSpec struct {
	Tenant

	Processes       int
	BytesPerProcess int64
	RecordSize      int64

	// Write performs writes instead of reads.
	Write bool

	// ComputePerOp inserts think time after each record.
	ComputePerOp sim.Time
}

// RunSpec describes one multi-tenant engine run.
type RunSpec struct {
	// Servers selects the stack: 0 = direct-attached local file system
	// on Device, n ≥ 1 = PVFS-like cluster with n I/O servers.
	Servers int
	Media   testbed.Media

	// Device is the local stack's device, built by the caller with
	// whatever fault wrappers the run injects. Unused on a cluster.
	Device device.Device

	// Faults, when enabled, degrades the cluster with the given plan.
	Faults faults.Config

	// ServerCache overrides each I/O server's page-cache size (see
	// testbed.ClusterSpec.ServerCache): 0 keeps the testbed default,
	// negative disables server caching and readahead — the setting the
	// qos figure uses so tenant interference reaches the devices instead
	// of being absorbed by server readahead.
	ServerCache int64

	// QoS configures the admission controller.
	QoS Config

	// Tenants' workloads all start at time zero and share the stack.
	Tenants []TenantSpec
}

// TenantResult is one tenant's measured outcome.
type TenantResult struct {
	Name    string
	Metrics core.Metrics
	Records []trace.Record
	Errors  int // failed accesses, including sheds
}

// Result is everything measured from one multi-tenant run.
type Result struct {
	// Combined covers every tenant's accesses: B, T, and the four
	// metrics over the global collection, as the paper's multi-
	// application recording prescribes.
	Combined core.Metrics
	Records  []trace.Record
	Errors   int

	Tenants []TenantResult

	// Report is the controller's QoS summary (per-tenant windows,
	// throttle counters, interference scores). Non-nil even with QoS
	// disabled — the windows and scores are pure observations.
	Report *Report
}

// Run executes every tenant's workload concurrently on one I/O system
// built on e, with the QoS controller's admission middleware at the top
// of each tenant's pipeline. The engine must be fresh; Run drives it to
// completion and leaves its shutdown to the caller.
//
// On a sharded engine all tenant client processes share one engine
// domain (like the shared client cache), so the controller's state is
// domain-local and the alternation discipline keeps it race-free; the
// I/O servers keep their own domains and still execute concurrently.
func Run(e *sim.Engine, spec RunSpec) (Result, error) {
	if len(spec.Tenants) == 0 {
		return Result{}, fmt.Errorf("qos: no tenants given")
	}
	tenants := make([]Tenant, len(spec.Tenants))
	for i, t := range spec.Tenants {
		if t.Processes < 1 || t.BytesPerProcess <= 0 || t.RecordSize <= 0 {
			return Result{}, fmt.Errorf("qos: tenant %q: processes, bytes and record size must be positive", t.Name)
		}
		tenants[i] = t.Tenant
	}
	ctl, err := NewController(spec.QoS, tenants...)
	if err != nil {
		return Result{}, err
	}

	// All tenant clients and processes live in one domain so the
	// controller's shared state stays domain-local.
	clientDom := 0
	if e.Sharded() {
		clientDom = e.NewDomain("qos-cn")
	}

	var cluster *pfs.Cluster
	var localFS *fsim.FileSystem
	switch {
	case spec.Servers > 0:
		cluster, _ = testbed.NewCluster(e, testbed.ClusterSpec{
			Servers:     spec.Servers,
			Media:       spec.Media,
			Clients:     0,
			Faults:      spec.Faults,
			ServerCache: spec.ServerCache,
		})
	case e.Sharded():
		return Result{}, fmt.Errorf("qos: sharded runs need a cluster stack (Servers > 0)")
	case spec.Device == nil:
		return Result{}, fmt.Errorf("qos: a local stack needs a Device")
	default:
		localFS = fsim.New(e, spec.Device, fsim.Config{Name: "local"})
	}
	moved := func() int64 {
		if cluster != nil {
			return cluster.Moved()
		}
		return localFS.Moved()
	}

	var pendings []*workload.Pending
	firstPID := int64(0)
	for ti, t := range spec.Tenants {
		env, err := tenantEnv(e, cluster, localFS, clientDom, ti, t, ctl.Middleware(t.Name))
		if err != nil {
			return Result{}, fmt.Errorf("qos: tenant %q: %w", t.Name, err)
		}
		w := workload.SeqRead{
			Label:           t.Name,
			Processes:       t.Processes,
			BytesPerProcess: t.BytesPerProcess,
			RecordSize:      t.RecordSize,
			Write:           t.Write,
			ComputePerOp:    t.ComputePerOp,
			FirstPID:        firstPID,
		}
		firstPID += int64(t.Processes)
		pend, err := w.Start(e, env)
		if err != nil {
			return Result{}, fmt.Errorf("qos: tenant %q: %w", t.Name, err)
		}
		pendings = append(pendings, pend)
	}
	if cluster != nil {
		cluster.FlushCaches()
	}
	if err := e.Run(); err != nil {
		return Result{}, fmt.Errorf("qos: simulation: %w", err)
	}

	res := Result{Report: ctl.Report()}
	for i, pend := range pendings {
		tr := pend.Result()
		res.Tenants = append(res.Tenants, TenantResult{
			Name:    spec.Tenants[i].Name,
			Metrics: core.Compute(tr.Trace, moved(), tr.ExecTime),
			Records: tr.Trace.Records(),
			Errors:  tr.Errors,
		})
		res.Records = append(res.Records, tr.Trace.Records()...)
		res.Errors += tr.Errors
	}
	res.Combined = core.Compute(trace.FromRecords(res.Records), moved(), e.Now())
	return res, nil
}

// tenantEnv builds tenant ti's private files and clients on the shared
// infrastructure, with the tenant's admission middleware outermost. On
// a sharded engine every client binds to the shared tenant domain dom.
func tenantEnv(e *sim.Engine, cluster *pfs.Cluster, localFS *fsim.FileSystem, dom, ti int, t TenantSpec, mw ioreq.Middleware) (workload.Env, error) {
	if cluster != nil {
		env := &workload.ClusterEnv{Cluster: cluster, Wrap: mw}
		for i := 0; i < t.Processes; i++ {
			f, err := cluster.Create(fmt.Sprintf("%s.file%d", t.Name, i), t.BytesPerProcess, cluster.DefaultLayout())
			if err != nil {
				return nil, err
			}
			env.Files = append(env.Files, f)
			prev := e.SetDomain(dom)
			env.Clients = append(env.Clients, cluster.NewClient(fmt.Sprintf("%s.cn%d", t.Name, i)))
			e.SetDomain(prev)
			env.Domains = append(env.Domains, dom)
		}
		return env, nil
	}
	env := &workload.LocalEnv{FS: localFS, Wrap: mw}
	for i := 0; i < t.Processes; i++ {
		f, err := localFS.Create(fmt.Sprintf("%s.file%d", t.Name, i), t.BytesPerProcess)
		if err != nil {
			return nil, err
		}
		env.Files = append(env.Files, f)
	}
	return env, nil
}
