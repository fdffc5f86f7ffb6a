//! Discrete-event simulation of the full sensor node (radio + CPU +
//! workload generator).
//!
//! This is the independent cross-check for the SCPN node models of the
//! paper's Figs. 12 (closed workload) and 13 (open workload); the `wsn`
//! crate builds the same system as a colored Petri net, and the test suite
//! requires the two to agree.
//!
//! ## Cycle semantics (reconstructed; see DESIGN.md §5)
//!
//! One event triggers the stage chain
//! `Wait → Receiving → Computation → Transmitting → Wait`:
//!
//! * **Receiving** — radio start-up (0.000194 s) → channel listening
//!   (0.001 s) → packet reception (0.000576 s) → a *communication-handling*
//!   CPU job (DVS overhead + `DVS_3` service) that wakes the CPU if needed.
//!   The radio stays active until the CPU finishes the packet check, then
//!   idles (paper, Sec. VI-A).
//! * **Computation** — a CPU job (DVS overhead + `DVS_1`/`DVS_2` service +
//!   `TaskPerJob × Task_Delay_Per_Job`).
//! * **Transmitting** — same radio sequence as Receiving, then a
//!   communication-handling CPU job; the radio sleeps when the stage ends.
//!
//! The CPU's Power-Down Threshold timer runs whenever its buffer is empty;
//! the CPU-visible gap *inside* a cycle is
//! `0.000194 + 0.001 + 0.000576 = 0.00177 s` — exactly the optimal PDT the
//! paper reports for the closed model.

use crate::kernel::{EventId, EventQueue};
use crate::rng::DesRng;
use energy::{
    ComponentBreakdown, ComponentPower, Energy, NodeBreakdown, PowerState, StateTimes, StateTracker,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Workload generator kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Closed: the next event is generated a fixed interval after the
    /// system returns to `Wait` (Fig. 12, transition `T0` with guard
    /// `#Wait > 0`).
    Closed {
        /// Generator interval (s); the paper uses 1 s.
        interval: f64,
    },
    /// Open: events arrive in a Poisson stream regardless of system state
    /// (Fig. 13); closely spaced events queue and each still triggers a
    /// full cycle.
    Open {
        /// Arrival rate (events/s); the paper uses 1/s.
        rate: f64,
    },
}

/// Parameters of the node simulation (defaults = Table XI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSimParams {
    /// Workload generator.
    pub workload: Workload,
    /// Radio start-up delay (s): `RadioStartUpDelay_R = _T` = 0.000194.
    pub radio_startup: f64,
    /// Channel-listening time (s): 0.001.
    pub channel_listen: f64,
    /// Packet transmit/receive time (s): `Transmitting_Receiving` 0.000576.
    pub tx_rx_time: f64,
    /// CPU power-up delay (s): 0.253.
    pub cpu_power_up_delay: f64,
    /// CPU Power-Down Threshold (s) — the swept variable of Figs. 14/15.
    pub power_down_threshold: f64,
    /// DVS mode-switch overhead (s): `DVS_Delay` 0.05.
    pub dvs_overhead: f64,
    /// DVS service times (s) for levels 1..=3: `DVS_1` 0.03, `DVS_2` 0.01,
    /// `DVS_3` 0.081578.
    pub dvs_levels: [f64; 3],
    /// DVS level of communication-handling jobs (paper: `Comm == 3.0`).
    pub comm_dvs_level: u8,
    /// DVS level of computation jobs.
    pub comp_dvs_level: u8,
    /// Tasks per computation job (`TaskPerJob`).
    pub tasks_per_job: u32,
    /// Per-task service time (s): `Task_Delay_Per_Job` 1e-6.
    pub task_delay_per_job: f64,
    /// Simulated horizon (s); the paper evaluates 15 min = 900 s.
    pub horizon: f64,
}

impl NodeSimParams {
    /// Table XI parameters with the given workload and threshold.
    pub fn paper_defaults(workload: Workload, power_down_threshold: f64) -> Self {
        NodeSimParams {
            workload,
            radio_startup: 0.000194,
            channel_listen: 0.001,
            tx_rx_time: 0.000576,
            cpu_power_up_delay: 0.253,
            power_down_threshold,
            dvs_overhead: 0.05,
            dvs_levels: [0.03, 0.01, 0.081578],
            comm_dvs_level: 3,
            comp_dvs_level: 1,
            tasks_per_job: 1,
            task_delay_per_job: 1e-6,
            horizon: 900.0,
        }
    }

    /// The CPU-visible gap inside one cycle: radio start-up + listening +
    /// packet time. With Table XI values this is exactly 0.00177 s — the
    /// paper's optimal closed-model PDT.
    pub fn intra_cycle_gap(&self) -> f64 {
        self.radio_startup + self.channel_listen + self.tx_rx_time
    }

    fn comm_job_duration(&self) -> f64 {
        self.dvs_overhead + self.dvs_levels[(self.comm_dvs_level - 1) as usize]
    }

    fn comp_job_duration(&self) -> f64 {
        self.dvs_overhead
            + self.dvs_levels[(self.comp_dvs_level - 1) as usize]
            + self.tasks_per_job as f64 * self.task_delay_per_job
    }
}

/// Results of one node simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSimResult {
    /// CPU dwell times.
    pub cpu_times: StateTimes,
    /// CPU sleep→wake transitions.
    pub cpu_wakeups: u64,
    /// Radio dwell times.
    pub radio_times: StateTimes,
    /// Radio sleep→wake transitions.
    pub radio_wakeups: u64,
    /// Full event cycles completed.
    pub cycles_completed: u64,
    /// Events generated by the workload.
    pub events_generated: u64,
    /// Largest backlog of pending events (open workload only).
    pub max_pending: u64,
}

impl NodeSimResult {
    /// Energy breakdown under the given power tables — one x-position of
    /// Fig. 14/15.
    pub fn breakdown(
        &self,
        cpu_power: &ComponentPower,
        radio_power: &ComponentPower,
    ) -> NodeBreakdown {
        NodeBreakdown {
            cpu: ComponentBreakdown::from_times(&self.cpu_times, cpu_power),
            radio: ComponentBreakdown::from_times(&self.radio_times, radio_power),
        }
    }

    /// Total node energy under the given power tables.
    pub fn total_energy(&self, cpu_power: &ComponentPower, radio_power: &ComponentPower) -> Energy {
        self.breakdown(cpu_power, radio_power).total()
    }
}

/// System stage within one event cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Wait,
    RxStartup,
    RxListen,
    RxData,
    RxHandle,
    CompHandle,
    TxStartup,
    TxListen,
    TxData,
    TxHandle,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Closed-workload generator fires.
    GenFire,
    /// Open-workload Poisson arrival.
    OpenArrival,
    /// The current radio phase (startup/listen/data) completed.
    RadioPhaseDone,
    /// CPU finished powering up.
    CpuWakeupDone,
    /// CPU finished the job at the head of its buffer.
    CpuServiceDone,
    /// CPU idle timer expired.
    CpuPdtExpire,
}

struct Cpu {
    tracker: StateTracker,
    buffer: VecDeque<f64>,
    pdt_timer: Option<EventId>,
    pdt: f64,
    pud: f64,
}

impl Cpu {
    /// Add a job; wake or activate the CPU as needed.
    fn push_job(&mut self, dur: f64, now: f64, q: &mut EventQueue<Ev>) {
        self.buffer.push_back(dur);
        match self.tracker.state() {
            PowerState::Sleep => {
                self.tracker.transition_to(PowerState::Wakeup, now);
                q.schedule_in(self.pud, Ev::CpuWakeupDone);
            }
            PowerState::Wakeup | PowerState::Active => {}
            PowerState::Idle => {
                if let Some(id) = self.pdt_timer.take() {
                    q.cancel(id);
                }
                self.start_head(now, q);
            }
        }
    }

    fn start_head(&mut self, now: f64, q: &mut EventQueue<Ev>) {
        let dur = *self.buffer.front().expect("job available");
        self.tracker.transition_to(PowerState::Active, now);
        q.schedule_in(dur, Ev::CpuServiceDone);
    }

    fn on_wakeup_done(&mut self, now: f64, q: &mut EventQueue<Ev>) {
        debug_assert_eq!(self.tracker.state(), PowerState::Wakeup);
        if self.buffer.is_empty() {
            self.go_idle(now, q);
        } else {
            self.start_head(now, q);
        }
    }

    /// Returns true — a job finished (the caller advances the system stage).
    fn on_service_done(&mut self, now: f64, q: &mut EventQueue<Ev>) {
        debug_assert_eq!(self.tracker.state(), PowerState::Active);
        self.buffer.pop_front().expect("job being served");
        if self.buffer.is_empty() {
            self.go_idle(now, q);
        } else {
            self.start_head(now, q);
        }
    }

    fn go_idle(&mut self, now: f64, q: &mut EventQueue<Ev>) {
        self.tracker.transition_to(PowerState::Idle, now);
        // Priority 1: the power-down timer loses exact ties against
        // work-delivering events, so `PDT == gap` keeps the CPU awake
        // (the boundary the paper's optimum sits on).
        self.pdt_timer = Some(q.schedule_in_pri(self.pdt, 1, Ev::CpuPdtExpire));
    }

    fn on_pdt_expire(&mut self, now: f64) {
        debug_assert_eq!(self.tracker.state(), PowerState::Idle);
        self.pdt_timer = None;
        self.tracker.transition_to(PowerState::Sleep, now);
    }
}

/// Run the node simulation for the given seed (only the open workload is
/// stochastic; the closed model is deterministic, and the seed is unused).
pub fn simulate_node(params: &NodeSimParams, seed: u64) -> NodeSimResult {
    assert!(params.horizon > 0.0, "horizon must be positive");
    assert!(
        (1..=3).contains(&params.comm_dvs_level) && (1..=3).contains(&params.comp_dvs_level),
        "DVS levels are 1..=3"
    );
    assert!(
        params.power_down_threshold >= 0.0,
        "threshold must be non-negative"
    );

    let mut rng = DesRng::seed_from_u64(seed);
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut cpu = Cpu {
        tracker: StateTracker::new(PowerState::Sleep, 0.0),
        buffer: VecDeque::new(),
        pdt_timer: None,
        pdt: params.power_down_threshold,
        pud: params.cpu_power_up_delay,
    };
    let mut radio = StateTracker::new(PowerState::Sleep, 0.0);
    let mut stage = Stage::Wait;
    let mut pending: u64 = 0;
    let mut max_pending: u64 = 0;
    let mut cycles: u64 = 0;
    let mut events: u64 = 0;

    // Prime the workload.
    match params.workload {
        Workload::Closed { interval } => {
            q.schedule_in(interval, Ev::GenFire);
        }
        Workload::Open { rate } => {
            q.schedule_in(rng.exp(rate), Ev::OpenArrival);
        }
    }

    // Local helper: begin a cycle (system leaves Wait).
    fn begin_cycle(
        stage: &mut Stage,
        radio: &mut StateTracker,
        params: &NodeSimParams,
        now: f64,
        q: &mut EventQueue<Ev>,
    ) {
        debug_assert_eq!(*stage, Stage::Wait);
        *stage = Stage::RxStartup;
        radio.transition_to(PowerState::Wakeup, now);
        q.schedule_in(params.radio_startup, Ev::RadioPhaseDone);
    }

    while let Some((now, ev)) = q.pop_before(params.horizon) {
        match ev {
            Ev::GenFire => {
                events += 1;
                begin_cycle(&mut stage, &mut radio, params, now, &mut q);
            }
            Ev::OpenArrival => {
                events += 1;
                let Workload::Open { rate } = params.workload else {
                    unreachable!("open arrival under closed workload")
                };
                q.schedule_in(rng.exp(rate), Ev::OpenArrival);
                if stage == Stage::Wait {
                    begin_cycle(&mut stage, &mut radio, params, now, &mut q);
                } else {
                    pending += 1;
                    max_pending = max_pending.max(pending);
                }
            }
            Ev::RadioPhaseDone => match stage {
                Stage::RxStartup | Stage::TxStartup => {
                    // Radio is up: start channel listening.
                    radio.transition_to(PowerState::Active, now);
                    stage = if stage == Stage::RxStartup {
                        Stage::RxListen
                    } else {
                        Stage::TxListen
                    };
                    q.schedule_in(params.channel_listen, Ev::RadioPhaseDone);
                }
                Stage::RxListen | Stage::TxListen => {
                    stage = if stage == Stage::RxListen {
                        Stage::RxData
                    } else {
                        Stage::TxData
                    };
                    q.schedule_in(params.tx_rx_time, Ev::RadioPhaseDone);
                }
                Stage::RxData | Stage::TxData => {
                    // Packet done: hand to the CPU; radio stays active until
                    // the handler completes (Sec. VI-A).
                    stage = if stage == Stage::RxData {
                        Stage::RxHandle
                    } else {
                        Stage::TxHandle
                    };
                    cpu.push_job(params.comm_job_duration(), now, &mut q);
                }
                _ => unreachable!("radio phase completion in stage {stage:?}"),
            },
            Ev::CpuWakeupDone => cpu.on_wakeup_done(now, &mut q),
            Ev::CpuServiceDone => {
                cpu.on_service_done(now, &mut q);
                match stage {
                    Stage::RxHandle => {
                        // Packet checked: radio idles; computation begins.
                        radio.transition_to(PowerState::Idle, now);
                        stage = Stage::CompHandle;
                        cpu.push_job(params.comp_job_duration(), now, &mut q);
                    }
                    Stage::CompHandle => {
                        // Results ready: wake the radio to transmit.
                        stage = Stage::TxStartup;
                        radio.transition_to(PowerState::Wakeup, now);
                        q.schedule_in(params.radio_startup, Ev::RadioPhaseDone);
                    }
                    Stage::TxHandle => {
                        // Cycle complete: radio sleeps, system waits.
                        radio.transition_to(PowerState::Sleep, now);
                        stage = Stage::Wait;
                        cycles += 1;
                        match params.workload {
                            Workload::Closed { interval } => {
                                q.schedule_in(interval, Ev::GenFire);
                            }
                            Workload::Open { .. } => {
                                if pending > 0 {
                                    pending -= 1;
                                    begin_cycle(&mut stage, &mut radio, params, now, &mut q);
                                }
                            }
                        }
                    }
                    _ => unreachable!("CPU completion in stage {stage:?}"),
                }
            }
            Ev::CpuPdtExpire => cpu.on_pdt_expire(now),
        }
    }

    let (cpu_times, cpu_wakeups) = cpu.tracker.finish(params.horizon);
    let (radio_times, radio_wakeups) = radio.finish(params.horizon);
    NodeSimResult {
        cpu_times,
        cpu_wakeups,
        radio_times,
        radio_wakeups,
        cycles_completed: cycles,
        events_generated: events,
        max_pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy::{CC2420_RADIO, PXA271_CPU};

    fn closed(pdt: f64) -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, pdt)
    }

    fn open(pdt: f64) -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Open { rate: 1.0 }, pdt)
    }

    #[test]
    fn intra_cycle_gap_is_the_magic_constant() {
        // 0.000194 + 0.001 + 0.000576 = 0.00177 exactly.
        let gap = closed(0.1).intra_cycle_gap();
        assert!((gap - 0.00177).abs() < 1e-12, "gap = {gap}");
    }

    #[test]
    fn dwell_times_cover_horizon() {
        let r = simulate_node(&closed(0.01), 1);
        assert!((r.cpu_times.total() - 900.0).abs() < 1e-6);
        assert!((r.radio_times.total() - 900.0).abs() < 1e-6);
    }

    #[test]
    fn closed_model_completes_one_cycle_per_interval() {
        let r = simulate_node(&closed(0.1), 1);
        // Cycle duration ~1.6 s at PDT=0.1 (1 s wait + processing);
        // expect on the order of 900/1.6 ≈ 550 cycles.
        assert!(
            (400..=800).contains(&(r.cycles_completed as i64)),
            "cycles = {}",
            r.cycles_completed
        );
        assert_eq!(r.max_pending, 0, "closed model never queues events");
    }

    #[test]
    fn closed_model_is_deterministic() {
        let a = simulate_node(&closed(0.01), 1);
        let b = simulate_node(&closed(0.01), 999);
        assert_eq!(a, b, "closed model must not depend on the seed");
    }

    #[test]
    fn tiny_pdt_causes_two_wakeups_per_cycle() {
        // PDT below the intra-cycle gap: the CPU sleeps in the TX window
        // and between cycles -> 2 wake-ups per cycle.
        let r = simulate_node(&closed(1e-6), 1);
        let per_cycle = r.cpu_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 2.0).abs() < 0.05,
            "wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn moderate_pdt_causes_one_wakeup_per_cycle() {
        // Gap < PDT < inter-cycle gap: idle through the TX window, sleep
        // between events only.
        let r = simulate_node(&closed(0.01), 1);
        let per_cycle = r.cpu_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 1.0).abs() < 0.05,
            "wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn huge_pdt_never_sleeps() {
        let r = simulate_node(&closed(100.0), 1);
        assert!(r.cpu_wakeups <= 1, "wakeups = {}", r.cpu_wakeups);
        // Only the initial pre-first-event sleep (~1 s) remains.
        assert!(r.cpu_times.sleep < 1.5, "sleep = {}", r.cpu_times.sleep);
    }

    #[test]
    fn pdt_exactly_at_gap_does_not_sleep_in_gap() {
        // Boundary semantics: at PDT == gap the job deposit and the timer
        // fire simultaneously; FIFO event order lets the deposit win
        // (the paper's optimum sits exactly on this boundary).
        let gap = closed(0.0).intra_cycle_gap();
        let r = simulate_node(&closed(gap), 1);
        let per_cycle = r.cpu_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 1.0).abs() < 0.05,
            "wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn optimum_beats_both_extremes_closed() {
        // The paper's headline (Fig. 14): an interior PDT beats both
        // immediate power-down and never-power-down.
        let e = |pdt: f64| {
            simulate_node(&closed(pdt), 1)
                .total_energy(&PXA271_CPU, &CC2420_RADIO)
                .joules()
        };
        let immediate = e(1e-9);
        let optimum = e(0.00177);
        let never = e(1e4);
        assert!(
            optimum < immediate,
            "optimum {optimum} must beat immediate {immediate}"
        );
        assert!(optimum < never, "optimum {optimum} must beat never {never}");
    }

    #[test]
    fn optimum_beats_both_extremes_open() {
        let e = |pdt: f64| {
            simulate_node(&open(pdt), 7)
                .total_energy(&PXA271_CPU, &CC2420_RADIO)
                .joules()
        };
        let immediate = e(1e-9);
        let optimum = e(0.01);
        let never = e(1e4);
        assert!(
            optimum < immediate,
            "optimum {optimum} must beat immediate {immediate}"
        );
        assert!(optimum < never, "optimum {optimum} must beat never {never}");
    }

    #[test]
    fn open_model_queues_bursts() {
        let r = simulate_node(&open(0.01), 3);
        assert!(r.events_generated > 700, "events = {}", r.events_generated);
        // Poisson bursts inevitably overlap a ~0.6 s cycle.
        assert!(r.max_pending >= 1);
        // All queued events eventually trigger cycles (no starvation):
        // completed cycles track generated events minus backlog.
        assert!(r.cycles_completed as i64 >= r.events_generated as i64 - 20);
    }

    #[test]
    fn open_model_reproducible_per_seed() {
        let a = simulate_node(&open(0.05), 11);
        let b = simulate_node(&open(0.05), 11);
        assert_eq!(a, b);
        let c = simulate_node(&open(0.05), 12);
        assert_ne!(a, c);
    }

    #[test]
    fn radio_wakes_twice_per_cycle() {
        let r = simulate_node(&closed(0.01), 1);
        let per_cycle = r.radio_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 2.0).abs() < 0.05,
            "radio wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn breakdown_totals_match() {
        let r = simulate_node(&closed(0.01), 1);
        let b = r.breakdown(&PXA271_CPU, &CC2420_RADIO);
        let total = r.total_energy(&PXA271_CPU, &CC2420_RADIO);
        assert!((b.total().joules() - total.joules()).abs() < 1e-12);
        // CPU dominates the node budget with these tables.
        assert!(b.cpu.total().joules() > b.radio.total().joules());
    }
}
