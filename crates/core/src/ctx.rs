//! The run context: everything an [`Algorithm`](crate::Algorithm) needs
//! for one transfer, in one place.
//!
//! [`RunCtx`] carries the environment (fault plan included), the dataset
//! and the telemetry sink, and `Algorithm::run(&self, ctx)` is the single
//! one-call entry point.

use eadt_dataset::Dataset;
use eadt_telemetry::Telemetry;
use eadt_transfer::TransferEnv;

enum TelSlot<'a> {
    Owned(Telemetry),
    Borrowed(&'a mut Telemetry),
}

/// Everything one [`Algorithm::run`](crate::Algorithm::run) call needs:
/// environment, dataset, telemetry.
///
/// Build one with [`RunCtx::new`] (telemetry disabled) or
/// [`RunCtx::with_telemetry`] and pass it to `Algorithm::run`. The
/// context is reusable across runs.
pub struct RunCtx<'a> {
    env: &'a TransferEnv,
    dataset: &'a Dataset,
    tel: TelSlot<'a>,
}

impl<'a> RunCtx<'a> {
    /// A plain run: telemetry disabled.
    pub fn new(env: &'a TransferEnv, dataset: &'a Dataset) -> Self {
        RunCtx {
            env,
            dataset,
            tel: TelSlot::Owned(Telemetry::disabled()),
        }
    }

    /// An instrumented run: planning decisions, probe windows, engine
    /// events and metric samples land in `tel`.
    pub fn with_telemetry(
        env: &'a TransferEnv,
        dataset: &'a Dataset,
        tel: &'a mut Telemetry,
    ) -> Self {
        RunCtx {
            env,
            dataset,
            tel: TelSlot::Borrowed(tel),
        }
    }

    /// All three pieces at once: the environment, the dataset and the
    /// telemetry sink (a no-op handle when the context was built with
    /// [`RunCtx::new`]).
    pub fn parts(&mut self) -> (&'a TransferEnv, &'a Dataset, &mut Telemetry) {
        let tel = match &mut self.tel {
            TelSlot::Owned(t) => t,
            TelSlot::Borrowed(t) => &mut **t,
        };
        (self.env, self.dataset, tel)
    }
}
