//! Maps reuse parked helpers instead of starting threads. In a file of its
//! own so that no other test's maps share the process's helpers.

use std::collections::HashSet;
use std::sync::Barrier;
use std::thread::ThreadId;

#[test]
fn a_thousand_two_thread_maps_are_served_by_one_helper_thread() {
    let me = std::thread::current().id();
    let mut helpers: HashSet<ThreadId> = HashSet::new();
    for round in 0..1000 {
        // Both items meet, so every map really runs one of them on a
        // helper; a map that spawned its helper would show a new id.
        let barrier = Barrier::new(2);
        let ids = gcc_parallel::par_map_indexed(2, 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert!(ids.contains(&me), "round {round}: the caller ran no item");
        helpers.extend(ids.into_iter().filter(|&id| id != me));
    }
    assert_eq!(helpers.len(), 1, "distinct helper threads");
}
