//! An event-driven micro-simulation of one GridFTP control channel, kept as
//! a test oracle.
//!
//! The engine models pipelining with a closed-form duty cycle: a channel
//! moving files of size `s` at rate `r` pays `RTT/pipelining + overhead`
//! between files. This module *validates* that abstraction from first
//! principles: it simulates the actual command protocol — a client keeping
//! up to `pipelining` transfer commands in flight, each file's data flowing
//! only after its command arrives at the server, the server paying a
//! per-file setup cost, completion acknowledgements returning after half an
//! RTT — on the earliest-first [`EventQueue`] of the [`event`] submodule.
//!
//! The unit tests assert the event-driven transfer time matches the
//! engine's closed-form model within a few percent across pipelining
//! depths, which is what justifies using the cheap formula in the hot loop.

mod event;

use eadt_sim::{Bytes, Rate, SimDuration, SimTime};
use event::EventQueue;

/// One file's lifecycle events inside the micro-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The command for file `i` arrives at the server, half an RTT after
    /// it was sent.
    CommandArrives(usize),
    /// The server finished file `i` (setup + bytes) and sends the ack.
    JobDone(usize),
}

/// Outcome of the micro-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlChannelRun {
    /// Total time from the first command to the last acknowledgement.
    pub makespan: SimDuration,
    /// Average goodput over the makespan.
    pub goodput: Rate,
}

/// Simulates transferring `files` equal-sized files over one channel with
/// the given pipelining depth, per-file server setup cost, round-trip time
/// and data rate.
///
/// Protocol model: the client sends the first `pipelining` commands at
/// t = 0 and one more each time an acknowledgement returns. A command takes
/// RTT/2 to reach the server. The server is a FIFO: for each command, in
/// arrival order, it performs the per-file setup and then streams the
/// file's bytes (the two serialise on the data path — the process that
/// owns the channel cannot open the next file while streaming the current
/// one). The acknowledgement takes RTT/2 back to the client.
pub fn simulate_channel(
    files: usize,
    file_size: Bytes,
    rate: Rate,
    rtt: SimDuration,
    setup: SimDuration,
    pipelining: u32,
) -> ControlChannelRun {
    assert!(files > 0, "need at least one file");
    assert!(!rate.is_zero(), "need a positive data rate");
    let pipelining = pipelining.max(1) as usize;
    let half_rtt = rtt / 2;
    let service = setup + file_size.time_at(rate);

    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut next_to_send = 0usize;
    for _ in 0..pipelining.min(files) {
        queue.schedule(
            SimTime::ZERO + half_rtt,
            Event::CommandArrives(next_to_send),
        );
        next_to_send += 1;
    }

    let mut server_busy = false;
    let mut pending: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut last_ack = SimTime::ZERO;
    let mut done = 0usize;

    while let Some(ev) = queue.pop() {
        match ev.event {
            Event::CommandArrives(i) => {
                if server_busy {
                    pending.push_back(i);
                } else {
                    server_busy = true;
                    queue.schedule(ev.at + service, Event::JobDone(i));
                }
            }
            Event::JobDone(_) => {
                done += 1;
                let ack_at = ev.at + half_rtt;
                last_ack = ack_at;
                if next_to_send < files {
                    // The client reacts to the ack instantly; the next
                    // command reaches the server one RTT after the job end.
                    queue.schedule(ev.at + rtt, Event::CommandArrives(next_to_send));
                    next_to_send += 1;
                }
                if let Some(j) = pending.pop_front() {
                    queue.schedule(ev.at + service, Event::JobDone(j));
                } else {
                    server_busy = false;
                }
            }
        }
    }
    debug_assert_eq!(done, files);

    let makespan = last_ack.since(SimTime::ZERO);
    let total = Bytes(file_size.as_u64() * files as u64);
    let goodput = Rate::from_bps(total.as_f64() * 8.0 / makespan.as_secs_f64().max(1e-9));
    ControlChannelRun { makespan, goodput }
}

/// The engine's closed-form steady-state model of the same channel: each
/// file costs its transfer time plus `RTT/pipelining + setup`.
///
/// This is a *conservative interpolation*: exact at `pipelining = 1`
/// (every file pays the full round trip) and as `pipelining → ∞` (only the
/// un-hideable setup remains), and a lower bound on throughput in between
/// — see [`exact_goodput`] and the validation tests below.
pub fn closed_form_goodput(
    file_size: Bytes,
    rate: Rate,
    rtt: SimDuration,
    setup: SimDuration,
    pipelining: u32,
) -> Rate {
    let xfer = file_size.time_at(rate).as_secs_f64();
    let gap = rtt.as_secs_f64() / f64::from(pipelining.max(1)) + setup.as_secs_f64();
    Rate::from_bps(file_size.as_f64() * 8.0 / (xfer + gap))
}

/// The exact steady-state goodput of the pipelined channel: with `pp`
/// commands in flight, the data path idles only for the *residual* round
/// trip the pipeline cannot cover:
///
/// ```text
/// cycle = setup + xfer + max(0, RTT − (pp − 1)·(setup + xfer))
/// ```
pub fn exact_goodput(
    file_size: Bytes,
    rate: Rate,
    rtt: SimDuration,
    setup: SimDuration,
    pipelining: u32,
) -> Rate {
    let service = file_size.time_at(rate).as_secs_f64() + setup.as_secs_f64();
    let residual = (rtt.as_secs_f64() - (f64::from(pipelining.max(1)) - 1.0) * service).max(0.0);
    Rate::from_bps(file_size.as_f64() * 8.0 / (service + residual))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: SimDuration = SimDuration::from_millis(40);
    const SETUP: SimDuration = SimDuration::from_millis(30);

    fn rate() -> Rate {
        Rate::from_mbps(1500.0)
    }

    #[test]
    fn unpipelined_small_files_pay_a_full_rtt_each() {
        // pp = 1: cycle = xfer + setup + RTT (command out, ack back).
        let size = Bytes::from_mb(4);
        let run = simulate_channel(200, size, rate(), RTT, SETUP, 1);
        let xfer = size.time_at(rate()).as_secs_f64();
        let per_file = xfer + SETUP.as_secs_f64() + RTT.as_secs_f64();
        let expect = 200.0 * per_file;
        let got = run.makespan.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.02,
            "event-driven {got:.3}s vs analytic {expect:.3}s"
        );
    }

    #[test]
    fn deep_pipelining_hides_the_round_trips_entirely() {
        // With the command queue always full, the data channel never idles
        // waiting on the control channel: makespan ≈ files × (xfer + setup)
        // (setup is serialised server-side work the pipeline cannot hide).
        let size = Bytes::from_mb(4);
        let run = simulate_channel(200, size, rate(), RTT, SETUP, 16);
        let xfer = size.time_at(rate()).as_secs_f64();
        let floor = 200.0 * (xfer + SETUP.as_secs_f64());
        let got = run.makespan.as_secs_f64();
        assert!(
            got >= floor * 0.98,
            "cannot beat the serial floor: {got} vs {floor}"
        );
        assert!(
            got < floor * 1.05,
            "pipelining should approach the floor: {got} vs {floor}"
        );
    }

    #[test]
    fn exact_form_tracks_event_driven_model_across_depths() {
        for size_mb in [2u64, 5, 20] {
            let size = Bytes::from_mb(size_mb);
            for pp in [1u32, 2, 4, 8, 16] {
                let run = simulate_channel(300, size, rate(), RTT, SETUP, pp);
                let model = exact_goodput(size, rate(), RTT, SETUP, pp);
                let err = (run.goodput.as_mbps() - model.as_mbps()).abs() / model.as_mbps();
                assert!(
                    err < 0.06,
                    "{size_mb} MB, pp={pp}: event {:.0} vs exact {:.0} Mbps ({:.1}% off)",
                    run.goodput.as_mbps(),
                    model.as_mbps(),
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn engine_form_is_a_conservative_interpolation() {
        // The engine's RTT/pp gap: exact at pp = 1, within a few percent of
        // exact once the pipeline is deep, and never optimistic in between.
        for size_mb in [2u64, 5, 20] {
            let size = Bytes::from_mb(size_mb);
            let exact1 = exact_goodput(size, rate(), RTT, SETUP, 1);
            let engine1 = closed_form_goodput(size, rate(), RTT, SETUP, 1);
            assert!((exact1.as_mbps() - engine1.as_mbps()).abs() / exact1.as_mbps() < 1e-9);
            for pp in [2u32, 4, 8, 16, 64] {
                let exact = exact_goodput(size, rate(), RTT, SETUP, pp);
                let engine = closed_form_goodput(size, rate(), RTT, SETUP, pp);
                assert!(
                    engine.as_mbps() <= exact.as_mbps() * 1.001,
                    "{size_mb} MB, pp={pp}: engine {:.0} must not exceed exact {:.0}",
                    engine.as_mbps(),
                    exact.as_mbps()
                );
            }
            let deep_exact = exact_goodput(size, rate(), RTT, SETUP, 64);
            let deep_engine = closed_form_goodput(size, rate(), RTT, SETUP, 64);
            assert!(
                (deep_exact.as_mbps() - deep_engine.as_mbps()).abs() / deep_exact.as_mbps() < 0.03,
                "deep pipelines must converge: {:.0} vs {:.0}",
                deep_engine.as_mbps(),
                deep_exact.as_mbps()
            );
        }
    }

    #[test]
    fn goodput_increases_monotonically_with_pipelining() {
        let size = Bytes::from_mb(3);
        let mut prev = 0.0;
        for pp in [1u32, 2, 4, 8] {
            let run = simulate_channel(150, size, rate(), RTT, SETUP, pp);
            assert!(
                run.goodput.as_mbps() >= prev,
                "pp={pp}: {} < {prev}",
                run.goodput.as_mbps()
            );
            prev = run.goodput.as_mbps();
        }
    }

    #[test]
    fn large_files_gain_nothing_from_pipelining() {
        // 2 GB files at 1.5 Gbps: ~11 s each; a 40 ms RTT is noise.
        let size = Bytes::from_gb(2);
        let p1 = simulate_channel(5, size, rate(), RTT, SETUP, 1);
        let p8 = simulate_channel(5, size, rate(), RTT, SETUP, 8);
        let gain = p8.goodput.as_mbps() / p1.goodput.as_mbps();
        assert!(gain < 1.01, "gain {gain}");
    }

    #[test]
    fn single_file_transfer_time_is_exact() {
        let size = Bytes::from_mb(100);
        let run = simulate_channel(1, size, rate(), RTT, SETUP, 4);
        // half RTT (command) + setup + transfer + half RTT (ack).
        let expect = RTT.as_secs_f64() + SETUP.as_secs_f64() + size.time_at(rate()).as_secs_f64();
        assert!((run.makespan.as_secs_f64() - expect).abs() < 1e-6);
    }
}
