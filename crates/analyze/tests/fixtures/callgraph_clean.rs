//! Clean negative for the workspace pass: allocation only on the cold
//! path.

pub fn weave_turn() {
    step();
}

fn step() {
    let x = 1;
    touch(x);
}

pub fn cold_summary() -> String {
    format!("not reachable from a hot-path root")
}
