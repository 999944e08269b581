//! Clean negative for the workspace passes: consistent lock order,
//! allocation only on the cold path, and a justified relaxed access.

pub fn weave_turn(state: &M, panics: &M) {
    let _gs = state.lock();
    let _gp = panics.lock();
    step();
}

pub fn reporter(state: &M, panics: &M) {
    let _gs = state.lock();
    let _gp = panics.lock();
}

fn step() {
    let x = 1;
    touch(x);
}

pub fn cold_summary() -> String {
    format!("not reachable from a hot-path root")
}

pub fn seq_cst(c: &AtomicU64) {
    c.fetch_add(1, Ordering::SeqCst);
}
