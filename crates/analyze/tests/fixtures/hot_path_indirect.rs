//! Seeded hot-path violations one call away from the hot-path root: the
//! old per-function name heuristic only saw `weave_turn`'s own body;
//! the reachability pass must follow the call into `helper`.

pub fn weave_turn(src: &S) {
    helper(src);
}

fn helper(src: &S) {
    let v = src.next().unwrap();
    let label = format!("step {v}");
    push(label);
}
