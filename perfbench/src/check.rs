//! Output checks, run outside the timed sections. Every check compares
//! against something computed apart from the code under test: the
//! reference interpreter, the benchmark's own `wc` counts, or the
//! independent certificate checker.

use br_ir::Module;
use br_vm::{run_reference, ExecStats, VmOptions};

/// What one run of a program observably did.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Behaviour {
    /// Exit code.
    pub exit: i64,
    /// Output bytes.
    pub output: Vec<u8>,
}

/// Run `module` on `input` under the reference interpreter.
pub fn reference_run(module: &Module, input: &[u8]) -> Result<(Behaviour, ExecStats), String> {
    let out = run_reference(module, input, &VmOptions::default())
        .map_err(|t| format!("reference run trapped: {t}"))?;
    Ok((
        Behaviour {
            exit: out.exit,
            output: out.output,
        },
        out.stats,
    ))
}

/// Exit code and output bytes must both match.
pub fn same_behaviour(expected: &Behaviour, got: &Behaviour) -> Result<(), String> {
    if expected.exit != got.exit {
        return Err(format!(
            "exit code {} differs from the reference {}",
            got.exit, expected.exit
        ));
    }
    if let Some(at) = (0..expected.output.len().max(got.output.len()))
        .find(|&i| expected.output.get(i) != got.output.get(i))
    {
        return Err(format!(
            "output differs from the reference at byte {at} ({} vs {} bytes)",
            got.output.len(),
            expected.output.len()
        ));
    }
    Ok(())
}

/// Run a deployed module under the reference interpreter and require
/// the behaviour of the unreordered program. Returns the deployed run's
/// event counts.
pub fn check_deployed(
    expected: &Behaviour,
    deployed: &Module,
    input: &[u8],
) -> Result<ExecStats, String> {
    let (got, stats) = reference_run(deployed, input)?;
    same_behaviour(expected, &got)?;
    Ok(stats)
}

/// What `wc` prints for `input`, counted here: lines, words and
/// characters, one decimal number per line. A word starts at a byte
/// that is not a blank, newline or tab after one that is (or at the
/// start).
pub fn wc_oracle(input: &[u8]) -> Vec<u8> {
    let (mut lines, mut words) = (0u64, 0u64);
    let mut in_word = false;
    for &c in input {
        match c {
            b'\n' => {
                lines += 1;
                in_word = false;
            }
            b' ' | b'\t' => in_word = false,
            _ if !in_word => {
                words += 1;
                in_word = true;
            }
            _ => {}
        }
    }
    format!("{lines}\n{words}\n{}\n", input.len()).into_bytes()
}

/// `wc` output must equal the benchmark's own counts.
pub fn check_wc(input: &[u8], output: &[u8]) -> Result<(), String> {
    let want = wc_oracle(input);
    if want == output {
        Ok(())
    } else {
        Err(format!(
            "wc printed {:?}, the counts are {:?}",
            String::from_utf8_lossy(output),
            String::from_utf8_lossy(&want)
        ))
    }
}

/// Every certificate must pass the independent checker.
pub fn check_certificates<'a>(texts: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    for text in texts {
        br_analysis::cert::check(text).map_err(|e| format!("certificate rejected: {e}"))?;
    }
    Ok(())
}

/// Check a `reorder` response payload: it must report `failures 0`
/// and carry exactly one cert line per reordered range sequence, naming
/// that sequence. Returns `(func, head)` of every reordered range
/// sequence.
pub fn check_reorder_response(payload: &[u8]) -> Result<Vec<(u32, u32)>, String> {
    let frame = br_serve::Frame {
        kind: "ok".to_string(),
        payload: payload.to_vec(),
    };
    let sections = frame.sections()?;
    let text = |name: &str| -> Result<String, String> {
        Ok(br_serve::proto::section(&sections, name)?
            .text()?
            .to_string())
    };
    let validation = text("validation")?;
    let verdict = validation.lines().next().unwrap_or("");
    if !verdict.ends_with(" failures 0") || !verdict.starts_with("proven ") {
        return Err(format!("validation verdict {verdict:?} is not clean"));
    }
    let mut reordered = Vec::new();
    for line in text("sequences")?.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() < 8 {
            return Err(format!("malformed sequence line {line:?}"));
        }
        if f[0] == "range" && f[7] == "reordered" {
            reordered.push((num(f[2])?, num(f[3])?));
        }
    }
    let mut certified = Vec::new();
    for line in text("certs")?.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 3 || f[2].len() != 16 || u64::from_str_radix(f[2], 16).is_err() {
            return Err(format!("malformed cert line {line:?}"));
        }
        certified.push((num(f[0])?, num(f[1])?));
    }
    let (mut want, mut got) = (reordered.clone(), certified);
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err(format!(
            "cert lines {got:?} do not match the reordered range sequences {want:?}"
        ));
    }
    Ok(reordered)
}

fn num(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// A warm (cached) response must be byte-identical to the cold one.
pub fn check_warm(cold: &[u8], warm: &[u8]) -> Result<(), String> {
    if cold == warm {
        Ok(())
    } else {
        Err(format!(
            "warm response ({} bytes) differs from the cold response ({} bytes)",
            warm.len(),
            cold.len()
        ))
    }
}
