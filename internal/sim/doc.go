// Package sim implements a deterministic discrete-event simulation kernel.
//
// All hardware substrates in this repository (CPU cores, RDMA fabric, NVMe
// SSDs) and all software-path processes (file systems, drivers, workload
// threads) execute inside one sim.Engine. The engine owns a virtual clock in
// nanoseconds and an event heap; exactly one unit of simulated activity runs
// at any instant, so every run with the same seed is bit-for-bit
// reproducible — a property the crash-recovery tests and the CPU-efficiency
// measurements rely on.
//
// Two execution styles are supported and freely mixed:
//
//   - Callbacks: Engine.At(d, fn) schedules fn to run d nanoseconds from
//     now on the engine goroutine. Callbacks must not block.
//   - Processes: Engine.Go(name, fn) spawns a Proc, a coroutine (stdlib
//     iter.Pull) that may Sleep, wait on Conds, acquire Resources and pop
//     Queues. The engine resumes a proc with a direct coroutine switch and
//     the proc parks by yielding back, so at most one of them ever touches
//     simulation state and no goroutine scheduler sits in between.
//
// The event heap is a 4-ary heap of event values ordered by (time,
// sequence number); the unique sequence number makes same-time events run
// in scheduling order. An event either runs a callback or resumes a proc,
// so a Sleep or a wake schedules without allocating, and Cond waiter
// lists and Queue items reuse their storage: after warm-up a sleep, a
// wake, a queue hand-off or an uncontended Resource.Use allocates nothing.
//
// Resources track a busy-time integral, which is how CPU utilization (and
// therefore the paper's CPU-efficiency metric, throughput ÷ utilization)
// is measured.
package sim
