//! Negative fixture for the panic-reach rule: the same call shape as
//! panic_reach_engine_bad.rs, but every path below the guaranteed
//! surface returns a typed error, and the one panic in the file sits in
//! a function nothing reachable calls. Never compiled.

pub struct EngineRun;

impl EngineRun {
    pub fn step(&self) -> Result<(), String> {
        helper()
    }
}

fn helper() -> Result<(), String> {
    Err("typed failure".to_string())
}

fn stray(x: Option<u32>) -> u32 {
    x.unwrap()
}
