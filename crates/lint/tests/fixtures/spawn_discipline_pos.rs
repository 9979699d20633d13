//! Fixture: free-range thread spawns in non-test code.

pub fn fire_and_forget() {
    std::thread::spawn(|| {});
}

pub fn named() -> std::io::Result<()> {
    std::thread::Builder::new()
        .name("rogue".to_string())
        .spawn(|| {})
        .map(|_| ())
}
