//! Compiled nests and reports, byte for byte.
//!
//! Every statement's node program (`ir::render`) and the compilation
//! report of one program per statement class, under each of the six
//! `compile-sweep` option sets, against `goldens/compile_nests.txt`. Each
//! compile also pins an FNV-1a hash of its whole `CompiledProgram` debug
//! text, so a plan, estimate or access-method choice cannot move either.
//! The nests are what the simulated clock of the ledger counts, so a
//! refactor of the planner that keeps these bytes keeps `sim_events` and
//! every estimate where they were.

mod common;

use std::fmt::Write as _;

use ooc_core::ir::render;

const GOLDEN: &str = include_str!("goldens/compile_nests.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The golden text: per program and option set, a header with the hash,
/// the report, then each statement's nest.
fn render_all() -> String {
    let mut out = String::new();
    for (name, source) in common::programs() {
        for (label, options) in common::option_sets() {
            let compiled = ooc_core::compile_source(&source, &options)
                .unwrap_or_else(|e| panic!("{name} / {label}: {e}"));
            let hash = fnv1a(format!("{compiled:?}").as_bytes());
            let _ = writeln!(out, "=== {name} / {label}: program {hash:016x}");
            out.push_str(&compiled.report());
            for (i, nest) in compiled.nests.iter().enumerate() {
                let _ = writeln!(out, "--- statement {}", i + 1);
                out.push_str(&render(nest));
            }
        }
    }
    out
}

#[test]
fn compiled_nests_and_reports_match_the_goldens() {
    let got = render_all();
    if got == GOLDEN {
        return;
    }
    let line = (got.lines().zip(GOLDEN.lines()))
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "compiled text differs from goldens/compile_nests.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
        line + 1,
        got.lines().nth(line),
        GOLDEN.lines().nth(line)
    );
}
