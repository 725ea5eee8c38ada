//! Criterion benchmarks for the synthesis substrate — the project's
//! analogue of the paper's "15 minutes per Vivado run" observation: a
//! full true characterization of a 3×3 accelerator datapath versus the
//! fast compositional and ML paths it motivates.

use clapped_accel::{build_datapath, characterize, simulate_stream, AcceleratorSpec, CharacterizeConfig};
use clapped_axops::Catalog;
use clapped_imgproc::{Image, QuantKernel, SynthKind};
use clapped_netlist::bdd::check_equivalence;
use clapped_netlist::{estimate_power, map_luts, optimize, synthesize, MapStrategy, SynthConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_netlist_flow(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_exact").expect("present");
    let netlist = m.netlist().clone();
    c.bench_function("optimize_mul8", |b| b.iter(|| optimize(black_box(&netlist))));
    let opt = optimize(&netlist);
    c.bench_function("map_luts_mul8_depth", |b| {
        b.iter(|| map_luts(black_box(&opt), 6, MapStrategy::Depth).expect("mappable"))
    });
    c.bench_function("map_luts_mul8_area", |b| {
        b.iter(|| map_luts(black_box(&opt), 6, MapStrategy::Area).expect("mappable"))
    });
    c.bench_function("synthesize_mul8_full", |b| {
        b.iter(|| synthesize(black_box(&netlist), &SynthConfig::default()).expect("flow"))
    });
}

fn bench_accelerator_characterization(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_tr4").expect("present");
    let spec = AcceleratorSpec::uniform_2d(64, 3, &m);
    let cfg = CharacterizeConfig::default();
    c.bench_function("build_datapath_3x3", |b| {
        b.iter(|| build_datapath(black_box(&spec), 8).expect("valid spec"))
    });
    c.bench_function("characterize_3x3_true", |b| {
        b.iter(|| characterize(black_box(&spec), &cfg).expect("flow"))
    });
}

/// Mapping and power on the all-exact 3×3 2-D datapath, the largest
/// point of the design space (the benchmark's `stage.twod3` row).
fn bench_datapath_synthesis(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let exact = catalog.at(0).expect("non-empty catalog");
    let cfg = CharacterizeConfig::default();
    let spec = AcceleratorSpec::uniform_2d(32, 3, &exact);
    let opt = optimize(&build_datapath(&spec, cfg.shift).expect("valid spec"));
    c.bench_function("map_luts_twod3_depth", |b| {
        b.iter(|| map_luts(black_box(&opt), 6, MapStrategy::Depth).expect("mappable"))
    });
    c.bench_function("map_luts_twod3_area", |b| {
        b.iter(|| map_luts(black_box(&opt), 6, MapStrategy::Area).expect("mappable"))
    });
    for (name, strategy) in [
        ("estimate_power_twod3_depth", MapStrategy::Depth),
        ("estimate_power_twod3_area", MapStrategy::Area),
    ] {
        let mapped = map_luts(&opt, 6, strategy).expect("mappable");
        c.bench_function(name, |b| {
            b.iter(|| estimate_power(black_box(&mapped), &cfg.synth.power).expect("power"))
        });
    }
}

fn bench_verification(c: &mut Criterion) {
    // Formal equivalence on an 8-bit adder (BDD-tractable).
    let mut n = clapped_netlist::Netlist::new("add8");
    let a = n.input_bus("a", 8);
    let b = n.input_bus("b", 8);
    let (s, cout) = clapped_netlist::bus::ripple_carry_add(&mut n, &a, &b, None);
    n.output_bus("s", &s);
    n.output("c", cout);
    let opt = optimize(&n);
    c.bench_function("bdd_equivalence_add8", |bch| {
        bch.iter(|| check_equivalence(black_box(&n), black_box(&opt), 500_000).expect("fits"))
    });

    // Bit-true accelerator stream simulation of a 32x32 image.
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_tr4").expect("present");
    let spec = AcceleratorSpec::uniform_2d(32, 3, &m);
    let kernel = QuantKernel::gaussian(3, 0.85);
    let img = Image::synthetic(SynthKind::SmoothField, 32, 32, 1);
    c.bench_function("stream_sim_32px", |bch| {
        bch.iter(|| {
            simulate_stream(
                black_box(&spec),
                black_box(&img),
                kernel.coeffs_2d(),
                kernel.shift(),
            )
            .expect("simulates")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_netlist_flow, bench_accelerator_characterization, bench_datapath_synthesis,
        bench_verification
}
criterion_main!(benches);
