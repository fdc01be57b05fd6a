//! Trace serialization: dump any workload to a portable text format.
//!
//! Enables external tools (or other simulators) to consume the suite's
//! traces (`proram-bench trace`), and pins an exact trace for regression
//! comparison. The format is line-oriented:
//!
//! ```text
//! #proram-trace v1
//! #name ocean_c
//! #footprint 4194304
//! 3 0x1a80 R
//! 5 0x1b00 W
//! ```

use crate::trace::Workload;
use std::io::{self, Write};

/// Magic first line of the format.
const MAGIC: &str = "#proram-trace v1";

/// Writes `workload`'s entire trace to `out`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn dump(workload: &mut dyn Workload, out: &mut dyn Write) -> io::Result<u64> {
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "#name {}", workload.name())?;
    writeln!(out, "#footprint {}", workload.footprint_bytes())?;
    let mut n = 0;
    while let Some(op) = workload.next_op() {
        writeln!(
            out,
            "{} {:#x} {}",
            op.comp_cycles,
            op.addr,
            if op.write { 'W' } else { 'R' }
        )?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splash2;

    fn dumped(w: &mut dyn Workload) -> (u64, String) {
        let mut bytes = Vec::new();
        let n = dump(w, &mut bytes).unwrap();
        (n, String::from_utf8(bytes).unwrap())
    }

    #[test]
    fn dump_writes_the_header_and_one_line_per_op() {
        let mut w = splash2::build("fft", 0.05, 500, 9);
        let footprint = w.footprint_bytes();
        let (n, text) = dumped(&mut w);
        assert_eq!(n, 500);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(MAGIC));
        assert_eq!(lines.next(), Some("#name fft"));
        assert_eq!(lines.next(), Some(&*format!("#footprint {footprint}")));
        // Every record is a fresh generation of the same kernel, in order.
        let mut fresh = splash2::build("fft", 0.05, 500, 9);
        let expected: Vec<String> = std::iter::from_fn(|| fresh.next_op())
            .map(|op| {
                let kind = if op.write { 'W' } else { 'R' };
                format!("{} {:#x} {kind}", op.comp_cycles, op.addr)
            })
            .collect();
        assert_eq!(lines.collect::<Vec<_>>(), expected);
    }

    #[test]
    fn dump_marks_reads_and_writes() {
        let mut w = splash2::build("radix", 0.05, 300, 2);
        let (_, text) = dumped(&mut w);
        assert!(text.lines().any(|l| l.ends_with(" W")));
        assert!(text.lines().any(|l| l.ends_with(" R")));
    }
}
