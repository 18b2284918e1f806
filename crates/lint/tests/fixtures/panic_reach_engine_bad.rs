//! Positive fixture for the panic-reach rule: stands in for
//! crates/transfer/src/engine/mod.rs in the test's symbol table, with a
//! panic sink two calls below the guaranteed surface. Never compiled.

pub struct EngineRun;

impl EngineRun {
    pub fn step(&self) {
        helper();
    }
}

fn helper() {
    deep(None);
}

fn deep(x: Option<u32>) {
    x.unwrap();
}
