//! Regenerates **§V-B.4**: integration of privacy-protection methods with
//! minimal accuracy impact.
//!
//! The paper (CIFAR-10, ResNet-56, 100 agents, 100 rounds) reports:
//! 81.7% with distance-correlation protection (α = 0.5), 83.2% with patch
//! shuffling, 77.6% with differential privacy (Laplace, ε = 0.5, δ = 1e−5),
//! versus an unprotected baseline in the mid-80s at that round budget.
//!
//! We reproduce the *shape* — each defence costs a few accuracy points, DP
//! the most — with real gradient descent on the miniature synthetic task,
//! which stands in for CIFAR-10 and ResNet-56 because real images are not
//! available offline (see `comdml-data`).

use comdml_core::{RealFleetConfig, RealSplitFleet};
use comdml_privacy::{distance_correlation, LaplaceMechanism, PatchShuffler};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 3;

fn baseline_config() -> RealFleetConfig {
    RealFleetConfig { num_agents: 4, seed: 11, ..RealFleetConfig::default() }
}

fn main() {
    println!("§V-B.4 — privacy integration (real training, miniature task, {ROUNDS} rounds)\n");

    // Unprotected baseline.
    let mut plain = RealSplitFleet::new(baseline_config());
    let base_report = plain.run(ROUNDS);
    let base_acc = base_report.final_accuracy();
    let (x, z) = plain.leakage_probe(96).expect("fleet has split agents");
    let base_dcor = distance_correlation(&x, &z).unwrap_or(0.0);
    println!(
        "{:<28} acc {:>5.1}%   dCor(x, z) {:.3}",
        "no protection",
        base_acc * 100.0,
        base_dcor
    );

    // Distance-correlation protection: noise at the cut (α = 0.5 scale).
    let mut dcor_fleet =
        RealSplitFleet::new(RealFleetConfig { activation_noise_std: 1.5, ..baseline_config() });
    let dcor_report = dcor_fleet.run(ROUNDS);
    let (x2, z2) = dcor_fleet.leakage_probe(96).expect("fleet has split agents");
    // The observable activation includes the protection noise.
    let noisy_z = {
        let mut rng = StdRng::seed_from_u64(99);
        z2.add(&comdml_tensor::Tensor::randn(z2.shape(), 1.5, &mut rng)).unwrap()
    };
    let protected_dcor = distance_correlation(&x2, &noisy_z).unwrap_or(0.0);
    println!(
        "{:<28} acc {:>5.1}%   dCor(x, z~) {:.3}   (paper: 81.7%)",
        "distance corr. (alpha 0.5)",
        dcor_report.final_accuracy() * 100.0,
        protected_dcor
    );

    // Patch shuffling on the inputs.
    let mut shuffle_fleet = RealSplitFleet::new(baseline_config());
    let shuffler = PatchShuffler::new(2);
    let mut rng = StdRng::seed_from_u64(5);
    shuffle_fleet.set_input_hook(Box::new(move |x| {
        shuffler.shuffle(x, &mut rng).unwrap_or_else(|| x.clone())
    }));
    let shuffle_report = shuffle_fleet.run(ROUNDS);
    println!(
        "{:<28} acc {:>5.1}%                       (paper: 83.2%)",
        "patch shuffling (2x2)",
        shuffle_report.final_accuracy() * 100.0
    );

    // Differential privacy on released parameters.
    let mut dp_fleet = RealSplitFleet::new(baseline_config());
    let mech = LaplaceMechanism::new(0.5, 0.08);
    let mut rng = StdRng::seed_from_u64(6);
    dp_fleet.set_param_hook(Box::new(move |params| mech.privatize(params, &mut rng)));
    let dp_report = dp_fleet.run(ROUNDS);
    println!(
        "{:<28} acc {:>5.1}%                       (paper: 77.6%)",
        "DP (Laplace, eps 0.5)",
        dp_report.final_accuracy() * 100.0
    );

    println!(
        "\nshape check: protections cost a few points, DP the most; \
         dCor drops under protection ({base_dcor:.3} -> {protected_dcor:.3})"
    );
}
