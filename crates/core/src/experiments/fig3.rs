//! Figure 3 — "SPW schematic of the double conversion receiver": the
//! front end assembled block-by-block as a dataflow schematic, executed
//! by the scheduler, and exportable as Graphviz DOT.
//!
//! The blocks are the stages of one [`wlan_rf::DoubleConversionReceiver`],
//! each a separate schematic block — the way the SPW user of the paper
//! drew it — so the schematic runs exactly the receiver's chain.

use crate::experiments::{Experiment, PointStat, RunContext, RunOutput};
use crate::report::Table;
use std::cell::RefCell;
use std::rc::Rc;
use wlan_dataflow::blocks::{FnBlock, SourceBlock};
use wlan_dataflow::graph::Graph;
use wlan_dataflow::probe::Probe;
use wlan_dataflow::sim::Simulation;
use wlan_dsp::{Complex, Rng};
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfStage};

/// The assembled schematic plus its output probe.
pub struct ReceiverSchematic {
    /// The block graph (source → … → probe).
    pub graph: Graph,
    /// Captures the 20 Msps baseband output.
    pub output: Probe,
}

impl std::fmt::Debug for ReceiverSchematic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReceiverSchematic")
            .field("blocks", &self.graph.node_names())
            .finish()
    }
}

/// Registry entry: build the Fig. 3 schematic, run it on a reference
/// burst, and verify the output decodes. The DOT text is attached as an
/// artifact (`fig3.dot`).
#[derive(Debug, Clone, Copy)]
pub struct Fig3Schematic;

impl Experiment for Fig3Schematic {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 3"
    }

    fn describe(&self) -> &'static str {
        "SPW-style block schematic of the double-conversion receiver"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        use wlan_channel::interferer::Scene;
        use wlan_phy::{Rate, Receiver, Transmitter};

        let mut rng = Rng::new(ctx.seed);
        let mut psdu = vec![0u8; ctx.effort.psdu_len.max(10)];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R24).transmit(&psdu);
        let mut padded = burst.samples.clone();
        padded.extend(std::iter::repeat_n(Complex::ZERO, 160));
        let scene = Scene::new(20e6, 4).add(&padded, 0.0, -50.0, 256).render();

        let (dot, out) = run(scene, &RfConfig::default(), 7);
        let sch = build(vec![], &RfConfig::default(), 7);
        let names = sch.graph.node_names();

        let mut t = Table::new(
            "Figure 3: SPW schematic of the double conversion receiver",
            &["#", "block"],
        );
        for (i, n) in names.iter().enumerate() {
            t.push_row(vec![i.to_string(), n.to_string()]);
        }

        let mut snapshot = vec![("n_blocks".to_string(), names.len() as f64)];
        let mut out_run = RunOutput {
            tables: vec![t],
            points: names
                .iter()
                .map(|n| PointStat::labeled(n.to_string()))
                .collect(),
            artifacts: vec![("fig3.dot".to_string(), dot)],
            ..RunOutput::default()
        };
        match Receiver::new().receive(&out) {
            Ok(got) => {
                let errs = got.psdu.iter().zip(&psdu).filter(|(a, b)| a != b).count();
                snapshot.push(("bit_errors".to_string(), errs as f64));
                out_run.notes.push(format!(
                    "schematic output decoded: {} bytes, {} bit errors, EVM {:.1} dB",
                    got.psdu.len(),
                    errs,
                    got.evm_db()
                ));
            }
            Err(e) => {
                snapshot.push(("bit_errors".to_string(), f64::NAN));
                out_run.notes.push(format!("decode failed: {e}"));
            }
        }
        out_run.snapshot = snapshot;
        out_run
    }
}

/// Builds the Fig. 3 schematic for an input `scene` at the oversampled
/// rate: one [`DoubleConversionReceiver::new`]`(config, seed)` shared by
/// a block per [`RfStage`], then an `adc` and a `decimate` block over
/// the same receiver's converter, decimator and DC correction. The
/// source emits the whole scene as one frame, so the AGC sees what the
/// receiver's [`DoubleConversionReceiver::process`] sees and the output
/// equals it bit for bit.
pub fn build(scene: Vec<Complex>, config: &RfConfig, seed: u64) -> ReceiverSchematic {
    let rx = Rc::new(RefCell::new(DoubleConversionReceiver::new(*config, seed)));
    let mut g = Graph::new();
    let frame = scene.len().max(1);
    let mut chain = vec![g.add(SourceBlock::new("rf_in", scene, frame))];
    for stage in RfStage::ALL {
        let rx = Rc::clone(&rx);
        chain.push(g.add(FnBlock::new(stage.name(), move |x: &[Complex]| {
            let mut y = x.to_vec();
            rx.borrow_mut().stage_in_place(stage, &mut y);
            y
        })));
    }
    let adc_rx = Rc::clone(&rx);
    chain.push(g.add(FnBlock::new("adc", move |x: &[Complex]| {
        adc_rx.borrow().adc().process(x)
    })));
    let osr = config.osr;
    chain.push(g.add(FnBlock::with_rates(
        "decimate",
        osr,
        1,
        move |x: &[Complex]| {
            let mut out = Vec::with_capacity(x.len() / osr + 1);
            rx.borrow_mut().decimate_into(x, &mut out);
            out
        },
    )));
    let output = Probe::new();
    chain.push(g.add(output.block("baseband_out")));
    for w in chain.windows(2) {
        g.connect(w[0], 0, w[1], 0).expect("linear chain wires up");
    }
    ReceiverSchematic { graph: g, output }
}

/// Builds the schematic, runs it, and returns the DOT text plus the
/// decoded output samples.
///
/// # Panics
///
/// Panics if the graph fails validation (cannot happen for the built-in
/// chain).
pub fn run(scene: Vec<Complex>, config: &RfConfig, seed: u64) -> (String, Vec<Complex>) {
    let mut sch = build(scene, config, seed);
    let dot = sch.graph.to_dot();
    Simulation::new()
        .run(&mut sch.graph)
        .expect("schematic schedules");
    (dot, sch.output.samples())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_channel::interferer::Scene;
    use wlan_phy::{Rate, Receiver, Transmitter};

    fn test_scene(seed: u64) -> (Vec<Complex>, Vec<u8>) {
        let mut rng = Rng::new(seed);
        let mut psdu = vec![0u8; 80];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(Rate::R12).transmit(&psdu);
        let mut padded = burst.samples.clone();
        padded.extend(std::iter::repeat_n(Complex::ZERO, 160));
        let scene = Scene::new(20e6, 4).add(&padded, 0.0, -50.0, 256).render();
        (scene, psdu)
    }

    #[test]
    fn schematic_matches_fig3_block_list() {
        let (scene, _) = test_scene(1);
        let sch = build(scene, &RfConfig::default(), 7);
        assert_eq!(
            sch.graph.node_names(),
            vec![
                "rf_in",
                "lna",
                "mixer1",
                "hpf",
                "mixer2_iq",
                "bb_filter",
                "bb_amp_agc",
                "adc",
                "decimate",
                "baseband_out"
            ]
        );
    }

    #[test]
    fn schematic_output_decodes() {
        let (scene, psdu) = test_scene(2);
        let cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let (dot, out) = run(scene, &cfg, 7);
        assert!(dot.contains("mixer2_iq"));
        let got = Receiver::new().receive(&out).expect("decodes");
        assert_eq!(got.psdu, psdu);
    }

    /// Runs the schematic and the receiver on the same scene and seed and
    /// asserts equal output bits.
    fn assert_schematic_is_receiver(cfg: &RfConfig) {
        let (scene, _) = test_scene(3);
        let (_, out_graph) = run(scene.clone(), cfg, 7);
        let out_mono = DoubleConversionReceiver::new(*cfg, 7).process(&scene);
        assert_eq!(out_graph.len(), out_mono.len());
        for (i, (a, b)) in out_graph.iter().zip(&out_mono).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {i}: graph {a:?} vs receiver {b:?}"
            );
        }
    }

    #[test]
    fn schematic_equivalent_to_monolithic_receiver() {
        for noise_enabled in [false, true] {
            assert_schematic_is_receiver(&RfConfig {
                noise_enabled,
                ..RfConfig::default()
            });
        }
    }

    #[test]
    fn schematic_follows_feedback_agc() {
        assert_schematic_is_receiver(&RfConfig {
            agc: wlan_rf::agc::AgcMode::Feedback { rate: 1e-3 },
            ..RfConfig::default()
        });
    }
}
