//! AMS netlist lint: structural and parametric checks on behavioral
//! netlists before elaboration.
//!
//! Diagnostic codes:
//!
//! | code   | severity | meaning |
//! |--------|----------|---------|
//! | AMS001 | error    | netlist does not parse |
//! | AMS002 | error    | unknown device model |
//! | AMS003 | error    | missing required parameter |
//! | AMS004 | error    | non-physical parameter value |
//! | AMS005 | error    | double-driven node (two device outputs) |
//! | AMS006 | error    | device self-loop (input node == output node) |
//! | AMS007 | error    | floating node (consumed but never driven) |
//! | AMS008 | error    | dangling node (driven but never consumed) |
//! | AMS009 | error    | structurally singular (no input→output path) |
//! | AMS010 | error    | feedback loop in the device chain |
//! | AMS101 | warning  | unknown parameter key (ignored by elaboration) |
//! | AMS102 | warning  | implausible compression point (p1db ≥ iip3) |

use crate::Diagnostic;
use wlan_ams::elaborate::MAX_FILTER_ORDER;
use wlan_ams::netlist::{Instance, Netlist};

/// Per-model parameter schema: `(model, required, optional)`.
///
/// Mirrors [`wlan_ams::elaborate::elaborate`]'s model table; keep the
/// two in sync when adding device models.
const MODELS: &[(&str, &[&str], &[&str])] = &[
    ("lna", &["gain"], &["p1db", "iip3"]),
    ("amp", &["gain"], &["p1db", "iip3"]),
    ("mixer", &["gain"], &["dc"]),
    ("hpf", &["fc"], &["order"]),
    ("cheb_lp", &["edge"], &["order", "ripple"]),
    ("agc", &[], &["target", "tau", "loop"]),
];

/// Parameters that must be strictly positive to be physical (corner
/// frequencies, time constants, power targets, loop gains, ripple).
const POSITIVE_PARAMS: &[&str] = &["fc", "edge", "ripple", "tau", "target", "loop"];

/// Lints the netlist `text`, treating `input`/`output` as the chain's
/// boundary nodes (conventionally `rf` and `out`). Findings are
/// reported against `target`.
pub fn lint_netlist(target: &str, text: &str, input: &str, output: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let netlist = match Netlist::parse(text) {
        Ok(n) => n,
        Err(e) => {
            out.push(Diagnostic::error("AMS001", target, "", e.to_string()));
            return out;
        }
    };

    for inst in &netlist.instances {
        lint_instance(target, inst, &mut out);
    }
    lint_structure(target, &netlist, input, output, &mut out);
    out
}

fn lint_instance(target: &str, inst: &Instance, out: &mut Vec<Diagnostic>) {
    let schema = MODELS.iter().find(|(m, _, _)| *m == inst.model);
    match schema {
        None => {
            out.push(Diagnostic::error(
                "AMS002",
                target,
                &inst.name,
                format!("unknown model '{}' (line {})", inst.model, inst.line),
            ));
        }
        Some((_, required, optional)) => {
            for req in *required {
                if !inst.params.contains_key(*req) {
                    out.push(Diagnostic::error(
                        "AMS003",
                        target,
                        &inst.name,
                        format!(
                            "model '{}' requires parameter '{}' (line {})",
                            inst.model, req, inst.line
                        ),
                    ));
                }
            }
            for key in inst.params.keys() {
                if !required.contains(&key.as_str()) && !optional.contains(&key.as_str()) {
                    out.push(Diagnostic::warning(
                        "AMS101",
                        target,
                        &inst.name,
                        format!(
                            "parameter '{}' is not used by model '{}' (line {})",
                            key, inst.model, inst.line
                        ),
                    ));
                }
            }
        }
    }

    for (key, &value) in &inst.params {
        if POSITIVE_PARAMS.contains(&key.as_str()) && value <= 0.0 {
            out.push(Diagnostic::error(
                "AMS004",
                target,
                &inst.name,
                format!(
                    "non-physical {key}={value}: must be > 0 (line {})",
                    inst.line
                ),
            ));
        }
        if key == "order"
            && (value < 1.0 || value > MAX_FILTER_ORDER as f64 || value.fract() != 0.0)
        {
            out.push(Diagnostic::error(
                "AMS004",
                target,
                &inst.name,
                format!(
                    "non-physical order={value}: must be an integer from 1 to \
                     {MAX_FILTER_ORDER} (line {})",
                    inst.line
                ),
            ));
        }
        if !value.is_finite() {
            out.push(Diagnostic::error(
                "AMS004",
                target,
                &inst.name,
                format!("non-finite {key} (line {})", inst.line),
            ));
        }
    }
    if let (Some(&p1db), Some(&iip3)) = (inst.params.get("p1db"), inst.params.get("iip3")) {
        // For a memoryless cubic nonlinearity P1dB sits ~9.6 dB below
        // IIP3; equal or inverted values indicate a data-entry mistake.
        if p1db >= iip3 {
            out.push(Diagnostic::warning(
                "AMS102",
                target,
                &inst.name,
                format!(
                    "p1db={p1db} dBm ≥ iip3={iip3} dBm is implausible for a \
                     cubic nonlinearity (line {})",
                    inst.line
                ),
            ));
        }
    }
}

fn lint_structure(
    target: &str,
    netlist: &Netlist,
    input: &str,
    output: &str,
    out: &mut Vec<Diagnostic>,
) {
    let insts = &netlist.instances;

    for inst in insts {
        if inst.input == inst.output {
            out.push(Diagnostic::error(
                "AMS006",
                target,
                &inst.name,
                format!(
                    "device input and output are the same node '{}' (line {})",
                    inst.input, inst.line
                ),
            ));
        }
    }

    // Double-driven nodes: two device outputs tied together would need
    // a KCL merge the behavioral chain does not model — and makes the
    // MNA system over-determined.
    for (i, a) in insts.iter().enumerate() {
        for b in &insts[i + 1..] {
            if a.output == b.output {
                out.push(Diagnostic::error(
                    "AMS005",
                    target,
                    &b.name,
                    format!(
                        "node '{}' is driven by both '{}' and '{}'",
                        a.output, a.name, b.name
                    ),
                ));
            }
        }
    }

    // Floating / dangling nodes. The chain boundary nodes are exempt:
    // `input` is driven by the stimulus, `output` by the observer.
    for inst in insts {
        let driven = inst.input == input || insts.iter().any(|o| o.output == inst.input);
        if !driven {
            out.push(Diagnostic::error(
                "AMS007",
                target,
                &inst.name,
                format!(
                    "input node '{}' floats: nothing drives it (line {})",
                    inst.input, inst.line
                ),
            ));
        }
        let consumed = inst.output == output || insts.iter().any(|o| o.input == inst.output);
        if !consumed {
            out.push(Diagnostic::error(
                "AMS008",
                target,
                &inst.name,
                format!(
                    "output node '{}' dangles: nothing consumes it (line {})",
                    inst.output, inst.line
                ),
            ));
        }
    }

    // Reachability: the MNA system is structurally singular when the
    // output node cannot be expressed in terms of the input stimulus.
    let mut reached: Vec<&str> = vec![input];
    let mut frontier = vec![input];
    while let Some(node) = frontier.pop() {
        for inst in insts {
            if inst.input == node && !reached.contains(&inst.output.as_str()) {
                reached.push(&inst.output);
                frontier.push(&inst.output);
            }
        }
    }
    if !reached.contains(&output) {
        out.push(Diagnostic::error(
            "AMS009",
            target,
            "",
            format!("structurally singular: no device path from '{input}' to '{output}'"),
        ));
    }

    // Feedback loops: Kahn's algorithm over device-to-device edges (a
    // device depends on whichever device drives its input node).
    let n = insts.len();
    let mut indeg = vec![0usize; n];
    let edge = |a: usize, b: usize| insts[a].output == insts[b].input;
    for (b, d) in indeg.iter_mut().enumerate() {
        *d = (0..n).filter(|&a| edge(a, b)).count();
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut ordered = 0usize;
    while let Some(i) = queue.pop() {
        ordered += 1;
        for (b, d) in indeg.iter_mut().enumerate() {
            if edge(i, b) {
                *d -= 1;
                if *d == 0 {
                    queue.push(b);
                }
            }
        }
    }
    if ordered < n {
        let looped: Vec<&str> = (0..n)
            .filter(|&i| indeg[i] > 0)
            .map(|i| insts[i].name.as_str())
            .collect();
        out.push(Diagnostic::error(
            "AMS010",
            target,
            looped.first().copied().unwrap_or_default(),
            format!(
                "feedback loop through devices {}: the linear chain cannot be ordered",
                looped.join(", ")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_ams::elaborate::DEFAULT_RECEIVER_NETLIST;

    fn codes(findings: &[Diagnostic]) -> Vec<&'static str> {
        findings.iter().map(|d| d.code).collect()
    }

    #[test]
    fn default_receiver_netlist_is_clean() {
        let findings = lint_netlist("default", DEFAULT_RECEIVER_NETLIST, "rf", "out");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn floating_node_fixture_rejected() {
        let findings = lint_netlist(
            "floating",
            include_str!("../fixtures/floating_node.net"),
            "rf",
            "out",
        );
        let c = codes(&findings);
        assert!(c.contains(&"AMS007"), "{findings:?}");
        assert!(c.contains(&"AMS008"), "{findings:?}");
        assert!(c.contains(&"AMS009"), "{findings:?}");
        assert!(findings
            .iter()
            .any(|d| d.code == "AMS007" && d.message.contains("n2")));
    }

    #[test]
    fn singular_fixture_rejected() {
        let findings = lint_netlist(
            "singular",
            include_str!("../fixtures/singular.net"),
            "rf",
            "out",
        );
        let c = codes(&findings);
        assert!(c.contains(&"AMS005"), "{findings:?}");
        assert!(c.contains(&"AMS009"), "{findings:?}");
        assert!(c.contains(&"AMS010"), "{findings:?}");
    }

    #[test]
    fn bad_params_fixture_rejected() {
        let findings = lint_netlist(
            "badparams",
            include_str!("../fixtures/bad_params.net"),
            "rf",
            "out",
        );
        let nonphys: Vec<_> = findings.iter().filter(|d| d.code == "AMS004").collect();
        assert!(nonphys.len() >= 3, "{findings:?}");
        assert!(nonphys.iter().any(|d| d.message.contains("fc")));
        assert!(nonphys.iter().any(|d| d.message.contains("order")));
        assert!(nonphys.iter().any(|d| d.message.contains("ripple")));
    }

    #[test]
    fn order_above_elaboration_limit_rejected() {
        let text = format!("f cheb_lp rf out edge=10M order={}\n", MAX_FILTER_ORDER + 1);
        let findings = lint_netlist("bigorder", &text, "rf", "out");
        assert!(
            findings
                .iter()
                .any(|d| d.code == "AMS004" && d.message.contains("order")),
            "{findings:?}"
        );
    }

    #[test]
    fn unknown_model_and_missing_param_rejected() {
        let findings = lint_netlist(
            "unknown",
            "x warp rf n1 flux=1\ny amp n1 out nf=3\n",
            "rf",
            "out",
        );
        let c = codes(&findings);
        assert!(c.contains(&"AMS002"), "{findings:?}");
        assert!(c.contains(&"AMS003"), "{findings:?}");
        assert!(c.contains(&"AMS101"), "{findings:?}"); // nf is ignored
    }

    #[test]
    fn self_loop_rejected() {
        let findings = lint_netlist(
            "selfloop",
            "a amp rf rf gain=3\nb amp rf out gain=1\n",
            "rf",
            "out",
        );
        assert!(codes(&findings).contains(&"AMS006"), "{findings:?}");
    }

    #[test]
    fn implausible_p1db_warned() {
        let findings = lint_netlist(
            "p1db",
            "a amp rf out gain=10 p1db=5 iip3=-10\n",
            "rf",
            "out",
        );
        let c = codes(&findings);
        assert!(c.contains(&"AMS102"), "{findings:?}");
        // A warning alone must not fail the lint.
        assert!(findings
            .iter()
            .all(|d| d.severity != crate::Severity::Error));
    }

    #[test]
    fn parse_error_reported_as_ams001() {
        let findings = lint_netlist("broken", "just two\n", "rf", "out");
        assert_eq!(codes(&findings), vec!["AMS001"]);
    }
}
