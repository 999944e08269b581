//! Seeded AB-BA deadlock across two named lock classes: `forward`
//! takes journal then telemetry-recorder (the `tracks` alias),
//! `backward` the reverse. The lock-order pass must report one cycle
//! naming both acquisition sites.

pub fn forward(journal: &M, tracks: &M) {
    let _gj = journal.lock();
    let _gt = tracks.lock();
}

pub fn backward(journal: &M, tracks: &M) {
    let _gt = tracks.lock();
    let _gj = journal.lock();
}
