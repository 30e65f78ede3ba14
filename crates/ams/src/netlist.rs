//! Behavioral netlist format.
//!
//! One instance per line:
//!
//! ```text
//! # double conversion receiver
//! lna1  lna     rf  n1  gain=15 nf=3 p1db=-5
//! mix1  mixer   n1  n2  gain=8  nf=9
//! hpf1  hpf     n2  n3  fc=150k order=2
//! mix2  mixer   n3  n4  gain=6  nf=11 dc=-45
//! lpf1  cheb_lp n4  out order=5 ripple=0.5 edge=10M
//! ```
//!
//! Fields: instance name, model name, input node, output node, then
//! `key=value` parameters. Values accept engineering suffixes
//! (`f p n u m k M G T`). Comments start with `#` or `//`.

use std::collections::BTreeMap;

/// One parsed instance line.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name (unique).
    pub name: String,
    /// Device model name.
    pub model: String,
    /// Input node.
    pub input: String,
    /// Output node.
    pub output: String,
    /// Parameters.
    pub params: BTreeMap<String, f64>,
    /// Source line number (1-based) for diagnostics.
    pub line: usize,
}

impl Instance {
    /// A parameter value, or `default` if absent.
    pub fn param_or(&self, key: &str, default: f64) -> f64 {
        self.params.get(key).copied().unwrap_or(default)
    }

    /// A required parameter.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingParam`] when absent.
    pub fn param(&self, key: &str) -> Result<f64, NetlistError> {
        self.params
            .get(key)
            .copied()
            .ok_or_else(|| NetlistError::MissingParam {
                instance: self.name.clone(),
                param: key.to_string(),
                line: self.line,
            })
    }
}

/// A parsed netlist.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    /// Instances in file order.
    pub instances: Vec<Instance>,
}

/// Netlist parse/validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A line did not have at least four fields.
    Malformed {
        /// Line number.
        line: usize,
        /// Line content.
        text: String,
    },
    /// A numeric value failed to parse.
    BadValue {
        /// Line number.
        line: usize,
        /// The failing token.
        token: String,
    },
    /// Duplicate instance name.
    DuplicateInstance {
        /// The duplicated name.
        name: String,
        /// Line number of the duplicate.
        line: usize,
    },
    /// A required parameter is missing.
    MissingParam {
        /// Instance name.
        instance: String,
        /// Missing key.
        param: String,
        /// Line number.
        line: usize,
    },
    /// Unknown device model at elaboration time.
    UnknownModel {
        /// The model name.
        model: String,
        /// Line number.
        line: usize,
    },
    /// The instances do not form a single chain from `input` to `output`.
    BrokenChain {
        /// Description of the break.
        detail: String,
    },
    /// A parameter value lies outside the range its device model accepts
    /// (non-finite, non-positive corner or time constant, bad order).
    InvalidParam {
        /// Instance name.
        instance: String,
        /// Parameter key.
        param: String,
        /// The rejected value.
        value: f64,
        /// The accepted range, in words.
        expected: &'static str,
        /// Line number.
        line: usize,
    },
    /// A co-simulation setting (sample rate, analog oversampling,
    /// decimation) lies outside its accepted range.
    InvalidSetting {
        /// Setting name.
        setting: &'static str,
        /// The rejected value.
        value: f64,
        /// The accepted range, in words.
        expected: &'static str,
    },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::Malformed { line, text } => {
                write!(f, "line {line}: malformed instance line '{text}'")
            }
            NetlistError::BadValue { line, token } => {
                write!(f, "line {line}: cannot parse value '{token}'")
            }
            NetlistError::DuplicateInstance { name, line } => {
                write!(f, "line {line}: duplicate instance '{name}'")
            }
            NetlistError::MissingParam {
                instance,
                param,
                line,
            } => write!(
                f,
                "line {line}: instance '{instance}' missing parameter '{param}'"
            ),
            NetlistError::UnknownModel { model, line } => {
                write!(f, "line {line}: unknown device model '{model}'")
            }
            NetlistError::BrokenChain { detail } => write!(f, "broken signal chain: {detail}"),
            NetlistError::InvalidParam {
                instance,
                param,
                value,
                expected,
                line,
            } => write!(
                f,
                "line {line}: instance '{instance}' parameter {param}={value}: expected {expected}"
            ),
            NetlistError::InvalidSetting {
                setting,
                value,
                expected,
            } => write!(f, "{setting} = {value}: expected {expected}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Parses a value with an optional engineering suffix.
pub fn parse_value(token: &str) -> Option<f64> {
    let (mantissa, mult) = match token.chars().last()? {
        'f' => (&token[..token.len() - 1], 1e-15),
        'p' => (&token[..token.len() - 1], 1e-12),
        'n' => (&token[..token.len() - 1], 1e-9),
        'u' => (&token[..token.len() - 1], 1e-6),
        'm' => (&token[..token.len() - 1], 1e-3),
        'k' => (&token[..token.len() - 1], 1e3),
        'M' => (&token[..token.len() - 1], 1e6),
        'G' => (&token[..token.len() - 1], 1e9),
        'T' => (&token[..token.len() - 1], 1e12),
        _ => (token, 1.0),
    };
    mantissa.parse::<f64>().ok().map(|v| v * mult)
}

impl Netlist {
    /// Parses netlist text.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] encountered.
    pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
        let mut instances: Vec<Instance> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split("//").next().unwrap_or("");
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 4 {
                return Err(NetlistError::Malformed {
                    line: line_no,
                    text: line.to_string(),
                });
            }
            let name = fields[0].to_string();
            if instances.iter().any(|i| i.name == name) {
                return Err(NetlistError::DuplicateInstance {
                    name,
                    line: line_no,
                });
            }
            let mut params = BTreeMap::new();
            for tok in &fields[4..] {
                let (k, v) = tok.split_once('=').ok_or(NetlistError::Malformed {
                    line: line_no,
                    text: (*tok).to_string(),
                })?;
                let value = parse_value(v).ok_or(NetlistError::BadValue {
                    line: line_no,
                    token: (*v).to_string(),
                })?;
                params.insert(k.to_string(), value);
            }
            instances.push(Instance {
                name,
                model: fields[1].to_string(),
                input: fields[2].to_string(),
                output: fields[3].to_string(),
                params,
                line: line_no,
            });
        }
        Ok(Netlist { instances })
    }

    /// Sets (or adds) a parameter on a named instance, for programmatic
    /// netlist sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BrokenChain`] with a description if the
    /// instance does not exist.
    pub fn set_param(&mut self, instance: &str, key: &str, value: f64) -> Result<(), NetlistError> {
        let inst = self
            .instances
            .iter_mut()
            .find(|i| i.name == instance)
            .ok_or_else(|| NetlistError::BrokenChain {
                detail: format!("no instance named '{instance}'"),
            })?;
        inst.params.insert(key.to_string(), value);
        Ok(())
    }

    /// Renders the netlist back to its text form.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for i in &self.instances {
            let _ = write!(out, "{} {} {} {}", i.name, i.model, i.input, i.output);
            for (k, v) in &i.params {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Orders the instances into a single chain from node `input` to
    /// node `output`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BrokenChain`] if the chain does not
    /// connect or branches.
    pub fn chain(&self, input: &str, output: &str) -> Result<Vec<&Instance>, NetlistError> {
        let mut order = Vec::new();
        let mut node = input.to_string();
        let mut remaining: Vec<&Instance> = self.instances.iter().collect();
        while node != output {
            let pos = remaining
                .iter()
                .position(|i| i.input == node)
                .ok_or_else(|| NetlistError::BrokenChain {
                    detail: format!("no instance drives from node '{node}'"),
                })?;
            let inst = remaining.remove(pos);
            if remaining.iter().any(|i| i.input == inst.input) {
                return Err(NetlistError::BrokenChain {
                    detail: format!("node '{}' fans out (chain must be linear)", inst.input),
                });
            }
            node = inst.output.clone();
            order.push(inst);
            if order.len() > self.instances.len() {
                return Err(NetlistError::BrokenChain {
                    detail: "cycle detected".to_string(),
                });
            }
        }
        if !remaining.is_empty() {
            return Err(NetlistError::BrokenChain {
                detail: format!(
                    "{} instance(s) not on the {input}→{output} path",
                    remaining.len()
                ),
            });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# receiver front end
lna1  lna     rf  n1  gain=15 nf=3 p1db=-5
mix1  mixer   n1  n2  gain=8  nf=9   // first conversion
hpf1  hpf     n2  n3  fc=150k order=2
lpf1  cheb_lp n3  out order=5 ripple=0.5 edge=10M
";

    #[test]
    fn parses_example() {
        let n = Netlist::parse(EXAMPLE).expect("parses");
        assert_eq!(n.instances.len(), 4);
        let lna = &n.instances[0];
        assert_eq!(lna.name, "lna1");
        assert_eq!(lna.model, "lna");
        assert_eq!(lna.input, "rf");
        assert_eq!(lna.param("gain").unwrap(), 15.0);
        assert_eq!(lna.param_or("missing", 7.0), 7.0);
        let hpf = &n.instances[2];
        assert_eq!(hpf.param("fc").unwrap(), 150e3);
        let lpf = &n.instances[3];
        assert_eq!(lpf.param("edge").unwrap(), 10e6);
    }

    #[test]
    fn engineering_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("2.5M"), Some(2.5e6));
        assert_eq!(parse_value("-45"), Some(-45.0));
        assert!((parse_value("100n").unwrap() - 100e-9).abs() < 1e-15);
        assert!((parse_value("3u").unwrap() - 3e-6).abs() < 1e-12);
        assert_eq!(parse_value("junk"), None);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let n = Netlist::parse("# only comments\n\n// more\n").expect("ok");
        assert!(n.instances.is_empty());
    }

    #[test]
    fn malformed_line_rejected() {
        let err = Netlist::parse("foo bar\n").unwrap_err();
        assert!(matches!(err, NetlistError::Malformed { line: 1, .. }));
    }

    #[test]
    fn duplicate_instance_rejected() {
        let text = "a amp n1 n2 gain=1\na amp n2 n3 gain=1\n";
        assert!(matches!(
            Netlist::parse(text).unwrap_err(),
            NetlistError::DuplicateInstance { .. }
        ));
    }

    #[test]
    fn bad_value_rejected() {
        let err = Netlist::parse("a amp n1 n2 gain=abc\n").unwrap_err();
        assert!(matches!(err, NetlistError::BadValue { .. }));
    }

    #[test]
    fn chain_orders_instances() {
        let n = Netlist::parse(EXAMPLE).unwrap();
        let chain = n.chain("rf", "out").expect("chains");
        let names: Vec<&str> = chain.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["lna1", "mix1", "hpf1", "lpf1"]);
    }

    #[test]
    fn set_param_and_roundtrip() {
        let mut n = Netlist::parse(EXAMPLE).unwrap();
        n.set_param("lpf1", "edge", 6.5e6).expect("instance exists");
        n.set_param("lna1", "nf", 4.0).expect("adds new key");
        assert!(n.set_param("ghost", "x", 1.0).is_err());
        // Text roundtrip preserves the values.
        let reparsed = Netlist::parse(&n.to_text()).expect("rendered text parses");
        let lpf = reparsed
            .instances
            .iter()
            .find(|i| i.name == "lpf1")
            .unwrap();
        assert_eq!(lpf.param("edge").unwrap(), 6.5e6);
        let lna = reparsed
            .instances
            .iter()
            .find(|i| i.name == "lna1")
            .unwrap();
        assert_eq!(lna.param("nf").unwrap(), 4.0);
    }

    #[test]
    fn chain_detects_gap() {
        let text = "a amp rf n1 gain=1\nb amp n2 out gain=1\n";
        let n = Netlist::parse(text).unwrap();
        assert!(matches!(
            n.chain("rf", "out"),
            Err(NetlistError::BrokenChain { .. })
        ));
    }

    #[test]
    fn chain_detects_stray_instance() {
        let text = "a amp rf out gain=1\nb amp x y gain=1\n";
        let n = Netlist::parse(text).unwrap();
        assert!(matches!(
            n.chain("rf", "out"),
            Err(NetlistError::BrokenChain { .. })
        ));
    }
}
