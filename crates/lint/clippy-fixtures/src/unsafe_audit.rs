//! `unsafe` is documented: `undocumented_unsafe_blocks`, and
//! `missing_safety_doc` on private items too.

pub fn read(v: &u8) -> u8 {
    let p: *const u8 = v;
    // SAFETY: `p` comes from a live reference.
    unsafe { *p }
}

/// Reads a byte.
///
/// # Safety
/// `p` must be valid for reads.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: forwarded contract from this fn's own Safety section.
    unsafe { *p }
}

pub fn bare(v: &u8) -> u8 {
    unsafe { undocumented(v) }
}

/// Reads a byte without stating its contract.
unsafe fn undocumented(p: *const u8) -> u8 {
    // SAFETY: forwarded contract.
    unsafe { *p }
}

pub struct Shared(pub *const u8);

unsafe impl Send for Shared {}
