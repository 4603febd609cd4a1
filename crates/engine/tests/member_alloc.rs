//! A query attached to an existing physical plan costs a small, fixed
//! amount of memory: its sink, gate, registry slot, member entry and a stats
//! block of its own row counters. The plan's task counters and stage
//! histograms are the plan's alone; no member carries a copy.
//!
//! A counting global allocator tracks the bytes the test thread holds live
//! while one SQL query is registered 100 times on an engine that has not
//! started (so no other thread allocates). The bytes retained per member
//! after the first must stay under `PER_MEMBER_BYTES`, and the bytes that
//! registering one query on a fresh engine retains — its plan, input ring
//! included — under `PLAN_BYTES`.

use saber_engine::Saber;
use saber_sql::Catalog;
use saber_types::{DataType, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: the thread-local may already be gone during thread exit.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is adjusting a thread-local counter, which
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: same contract as the caller's `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: same contract as the caller's `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: same contract as the caller's `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const SQL: &str = "SELECT timestamp, key, COUNT(*) FROM S [ROWS 1024 SLIDE 512] GROUP BY key";

fn catalog() -> Catalog {
    let schema = Schema::from_pairs(&[("timestamp", DataType::Timestamp), ("key", DataType::Int)])
        .unwrap()
        .into_ref();
    Catalog::new().with_stream("S", schema)
}

/// Members attached after the one whose registration built the plan.
const MEMBERS: usize = 99;
/// Live bytes allowed per attached member.
const PER_MEMBER_BYTES: i64 = 4096;

#[test]
fn a_member_of_an_existing_plan_retains_under_4_kib() {
    let catalog = catalog();
    let engine = Saber::builder().worker_threads(1).build().unwrap();
    let first = engine.add_query_sql(SQL, &catalog).unwrap();
    let mut members = Vec::with_capacity(MEMBERS);
    let before = live_bytes();
    for _ in 0..MEMBERS {
        members.push(engine.add_query_sql(SQL, &catalog).unwrap());
    }
    let per_member = (live_bytes() - before) / MEMBERS as i64;
    assert_eq!(engine.num_physical_plans(), 1);
    assert_eq!(
        engine.sharing_info(members[0].id()),
        Some((first.id(), MEMBERS + 1))
    );
    println!("live bytes retained per attached member: {per_member}");
    assert!(
        per_member < PER_MEMBER_BYTES,
        "{per_member} live bytes per attached member"
    );
}

/// Live bytes allowed for one physical plan at the default task size.
const PLAN_BYTES: i64 = 8 << 20;

#[test]
fn a_plan_at_the_default_task_size_retains_under_8_mib() {
    let catalog = catalog();
    let engine = Saber::builder().worker_threads(1).build().unwrap();
    let before = live_bytes();
    let query = engine.add_query_sql(SQL, &catalog).unwrap();
    let plan = live_bytes() - before;
    assert_eq!(engine.num_physical_plans(), 1);
    println!("live bytes retained by query {}'s plan: {plan}", query.id());
    assert!(plan < PLAN_BYTES, "{plan} live bytes for one plan");
}
