//! Bit-identity goldens for the true synthesis path.
//!
//! Pins, for fixed netlists, a digest of the mapped LUT network (every
//! LUT's root, inputs and truth table, plus the network depth) and the
//! bits of all four `PowerReport` fields, for LUT sizes 4 and 6 under
//! both mapping strategies; and every field of the `AccelReport` that
//! `Clapped::characterize_hw` returns for a handful of fixed
//! configurations. Every row also carries the `content_digest` of the
//! source netlist and of its `optimize` output (`net=`/`opt=`), which
//! pins gate order through `Netlist::instantiate` (operator and
//! datapath builders) and dead-code elimination. Mapper, evaluator and
//! netlist-copy rewrites are host-time changes only: any drift in these
//! values is a behaviour change.
//!
//! On a mismatch the test prints the full table it computed, one row
//! per line, in the format of the golden constants below.

use clapped_accel::{build_datapath, AccelReport, AcceleratorSpec, CharacterizeConfig};
use clapped_axops::{Catalog, Mul8s};
use clapped_core::Clapped;
use clapped_dse::Configuration;
use clapped_imgproc::ConvMode;
use clapped_netlist::{estimate_power, map_luts, optimize, MapStrategy, MappedNetlist, Netlist};
use rand::SeedableRng;

/// FNV-1a over 64-bit words.
fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn mapped_digest(m: &MappedNetlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for lut in &m.luts {
        fnv(&mut h, lut.root.index() as u64);
        fnv(&mut h, lut.inputs.len() as u64);
        for i in &lut.inputs {
            fnv(&mut h, i.index() as u64);
        }
        fnv(&mut h, lut.truth);
    }
    fnv(&mut h, u64::from(m.depth));
    h
}

/// The synthesis cases: the three perfbench stage points (one exact
/// 8×8 operator, the all-exact 3×3 separable and 2-D datapaths) and
/// every standard-catalog operator.
fn cases() -> Vec<(String, Netlist)> {
    let catalog = Catalog::standard();
    let exact = catalog.at(0).expect("non-empty catalog");
    let shift = CharacterizeConfig::default().shift;
    let separable = AcceleratorSpec {
        image_size: 32,
        window: 3,
        stride: 1,
        downsample: false,
        mode: ConvMode::Separable,
        muls: vec![exact.clone(); 6],
    };
    let mut out = vec![
        ("stage.mul8".to_string(), exact.netlist().clone()),
        (
            "stage.sep3".to_string(),
            build_datapath(&separable, shift).expect("valid spec"),
        ),
        (
            "stage.twod3".to_string(),
            build_datapath(&AcceleratorSpec::uniform_2d(32, 3, &exact), shift).expect("valid spec"),
        ),
    ];
    for m in catalog.iter() {
        out.push((format!("op.{}", m.name()), m.netlist().clone()));
    }
    out
}

fn synthesis_rows() -> Vec<String> {
    let power = CharacterizeConfig::default().synth.power;
    let mut rows = Vec::new();
    for (name, netlist) in cases() {
        let opt = optimize(&netlist);
        let digests = format!(
            "net={:016x} opt={:016x}",
            netlist.content_digest(),
            opt.content_digest()
        );
        for k in [4, 6] {
            for strategy in [MapStrategy::Depth, MapStrategy::Area] {
                let mapped = map_luts(&opt, k, strategy).expect("mappable");
                let p = estimate_power(&mapped, &power).expect("power");
                rows.push(format!(
                    "{name} k{k} {strategy:?} luts={} depth={} map={:016x} power={:016x},{:016x},{:016x},{:016x} {digests}",
                    mapped.lut_count(),
                    mapped.depth,
                    mapped_digest(&mapped),
                    p.logic_mw.to_bits(),
                    p.signal_mw.to_bits(),
                    p.static_mw.to_bits(),
                    p.mean_activity.to_bits(),
                ));
            }
        }
    }
    rows
}

fn accel_row(name: &str, datapath: &Netlist, r: &AccelReport) -> String {
    format!(
        "{name} luts={} cycles={} f64={:016x},{:016x},{:016x},{:016x},{:016x},{:016x},{:016x},{:016x} net={:016x} opt={:016x}",
        r.luts,
        r.latency_cycles,
        r.cpd_ns.to_bits(),
        r.fmax_mhz.to_bits(),
        r.clock_mhz.to_bits(),
        r.total_power_mw.to_bits(),
        r.logic_power_mw.to_bits(),
        r.signal_power_mw.to_bits(),
        r.pdp_pj.to_bits(),
        r.energy_per_image_uj.to_bits(),
        datapath.content_digest(),
        optimize(datapath).content_digest(),
    )
}

fn characterize_rows() -> Vec<String> {
    let fw = Clapped::builder()
        .image_size(16)
        .seed(3)
        .build()
        .expect("framework builds");
    let mixed: Vec<usize> = (0..9).map(|i| (i * 5) % fw.catalog().len()).collect();
    let mut configs = vec![
        ("cfg.golden3".to_string(), Configuration::golden(3)),
        (
            "cfg.sep_mixed".to_string(),
            Configuration {
                mode: ConvMode::Separable,
                mul_indices: mixed.clone(),
                ..Configuration::golden(3)
            },
        ),
        (
            "cfg.twod_mixed_s2_ds".to_string(),
            Configuration {
                stride: 2,
                downsample: true,
                mul_indices: mixed,
                ..Configuration::golden(3)
            },
        ),
    ];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    for i in 0..2 {
        configs.push((format!("cfg.sampled{i}"), fw.space().sample(&mut rng)));
    }
    let shift = CharacterizeConfig::default().shift;
    configs
        .iter()
        .map(|(name, c)| {
            let datapath = build_datapath(&fw.accel_spec(c), shift).expect("valid spec");
            accel_row(name, &datapath, &fw.characterize_hw(c).expect("characterizes"))
        })
        .collect()
}

fn check(rows: &[String], golden: &[&str]) {
    if rows.len() != golden.len() || rows.iter().zip(golden).any(|(r, g)| r != g) {
        for r in rows {
            println!("    \"{r}\",");
        }
        for (r, g) in rows.iter().zip(golden) {
            assert_eq!(r, g);
        }
        assert_eq!(rows.len(), golden.len(), "row count");
    }
}

#[test]
fn mapping_and_power_are_bit_identical() {
    check(&synthesis_rows(), SYNTH_GOLDEN);
}

#[test]
fn characterize_hw_is_bit_identical() {
    check(&characterize_rows(), ACCEL_GOLDEN);
}

// Recorded before the dense LUT evaluator and fixed-size cuts landed;
// the `net=`/`opt=` digests were recorded before `instantiate` and
// dead-code elimination moved onto the shared fanin remap.
#[rustfmt::skip]
const SYNTH_GOLDEN: &[&str] = &[
    "stage.mul8 k4 Depth luts=174 depth=20 map=9ca80aeb1feb95d3 power=402fa9b6db6db6dc,40367d05b05b05b1,403242d0e5604189,3fda5ffbe4cbc600 net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "stage.mul8 k4 Area luts=155 depth=26 map=f85b902b5bd14bb9 power=402c7c7507507508,4033a94444444444,40323b851eb851ec,3fdaa9cfaa73ea9d net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "stage.mul8 k6 Depth luts=99 depth=12 map=d12b7dacacd702f1 power=4021ef6db6db6db7,40340171c71c71c7,40322604189374bc,3fda994830567fd7 net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "stage.mul8 k6 Area luts=108 depth=25 map=2429280c0056d931 power=40241e0ea0ea0ea1,4032cdffffffffff,40322978d4fdf3b6,3fdb2bc7e5c8af20 net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "stage.sep3 k4 Depth luts=1182 depth=24 map=04c94b986291a033 power=405b5536db6db6dc,4062f3960b60b60b,4033c5e353f7ced9,3fdabb509d66c867 net=dae54c40578eadeb opt=210527957fa633fb",
    "stage.sep3 k4 Area luts=1050 depth=32 map=5f9c390eb3d29e2b power=40585ec1d41d41d4,406048aaaaaaaaab,4033933333333333,3fdade88e1da8385 net=dae54c40578eadeb opt=210527957fa633fb",
    "stage.sep3 k6 Depth luts=682 depth=15 map=9a6f25251ea38b5d power=404f3a0750750751,4060c76ccccccccc,403305e353f7ced9,3fdac5b8c77a0a62 net=dae54c40578eadeb opt=210527957fa633fb",
    "stage.sep3 k6 Area luts=738 depth=31 map=c5ef64b55b795589 power=40515057c57c57c5,405ef56d82d82d82,40331b645a1cac08,3fdb4b69d102f8db net=dae54c40578eadeb opt=210527957fa633fb",
    "stage.twod3 k4 Depth luts=1920 depth=29 map=cdfe935155b95e98 power=4066b32a0ea0ea0f,406ec60ccccccccc,4034e147ae147ae1,3fdb40dbbe5aa826 net=285a2bb14958d915 opt=91ce3974e919e68b",
    "stage.twod3 k4 Area luts=1688 depth=38 map=25c43aab980ae58e power=406406e492492493,406a2f56c16c16c2,4034883126e978d5,3fdb62724f63907e net=285a2bb14958d915 opt=91ce3974e919e68b",
    "stage.twod3 k6 Depth luts=1146 depth=19 map=3bf8948857253c4c power=405b237c57c57c58,406aed1ddddddddd,4033b810624dd2f2,3fdb7fc52206b73e net=285a2bb14958d915 opt=91ce3974e919e68b",
    "stage.twod3 k6 Area luts=1243 depth=35 map=c4d631436511b9d1 power=405e1157c57c57c6,40692b5c71c71c71,4033dd4fdf3b645a,3fdbfa8ffea3ffa9 net=285a2bb14958d915 opt=91ce3974e919e68b",
    "op.mul8s_exact k4 Depth luts=174 depth=20 map=9ca80aeb1feb95d3 power=402fa9b6db6db6dc,40367d05b05b05b1,403242d0e5604189,3fda5ffbe4cbc600 net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "op.mul8s_exact k4 Area luts=155 depth=26 map=f85b902b5bd14bb9 power=402c7c7507507508,4033a94444444444,40323b851eb851ec,3fdaa9cfaa73ea9d net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "op.mul8s_exact k6 Depth luts=99 depth=12 map=d12b7dacacd702f1 power=4021ef6db6db6db7,40340171c71c71c7,40322604189374bc,3fda994830567fd7 net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "op.mul8s_exact k6 Area luts=108 depth=25 map=2429280c0056d931 power=40241e0ea0ea0ea1,4032cdffffffffff,40322978d4fdf3b6,3fdb2bc7e5c8af20 net=7b5c12109a61c284 opt=9976ef065e5d4c31",
    "op.mul8s_tr1 k4 Depth luts=173 depth=20 map=e7112f4c07bb15a0 power=402f7caf8af8af8c,40365dddddddddde,4032426e978d4fdf,3fda61d326adad3a net=a8a94c872cfed82a opt=835d1c48d25a1cea",
    "op.mul8s_tr1 k4 Area luts=154 depth=26 map=1f8bf99953a936a4 power=402c4f6db6db6db7,40338a1c71c71c71,40323b22d0e56042,3fdaac4ac4ac4ac5 net=a8a94c872cfed82a opt=835d1c48d25a1cea",
    "op.mul8s_tr1 k6 Depth luts=98 depth=12 map=0d98b739d0ed291b power=4021c26666666667,4033e249f49f49f4,403225a1cac08312,3fda9cd6273589cd net=a8a94c872cfed82a opt=835d1c48d25a1cea",
    "op.mul8s_tr1 k6 Area luts=107 depth=25 map=163651e1eb004c62 power=4023f10750750751,4032aed82d82d82d,40322916872b020c,3fdb30442ff8123c net=a8a94c872cfed82a opt=835d1c48d25a1cea",
    "op.mul8s_tr2 k4 Depth luts=164 depth=20 map=93a7a9c40219898f power=402eea6666666666,40353dcccccccccd,40323ef9db22d0e5,3fdb3feea99543ff net=fdd192a35eeab606 opt=814691444894488f",
    "op.mul8s_tr2 k4 Area luts=141 depth=26 map=c94537749f328d60 power=402acd5f15f15f16,403286bbbbbbbbbb,40323624dd2f1aa0,3fdb83f91047a446 net=fdd192a35eeab606 opt=814691444894488f",
    "op.mul8s_tr2 k6 Depth luts=89 depth=12 map=545618616606c9fd power=402108cccccccccd,40329b27d27d27d2,4032222d0e560419,3fdbe96634dd3572 net=fdd192a35eeab606 opt=814691444894488f",
    "op.mul8s_tr2 k6 Area luts=96 depth=25 map=5ce000bdcdfcd4a4 power=4022b941d41d41d4,40319b9f49f49f49,403224dd2f1a9fbe,3fdc4ff6b646d224 net=fdd192a35eeab606 opt=814691444894488f",
    "op.mul8s_tr3 k4 Depth luts=152 depth=17 map=9e953c09dc6d63ab power=402d0a2be2be2be4,4033f9c16c16c16c,40323a5e353f7cee,3fdb9baba2589f72 net=b78dbe102cc32bee opt=0be363d1f98bb203",
    "op.mul8s_tr3 k4 Area luts=140 depth=22 map=78f754806040ce85 power=402afd41d41d41d4,4032303e93e93e93,403235c28f5c28f6,3fdbdcc877321dcd net=b78dbe102cc32bee opt=0be363d1f98bb203",
    "op.mul8s_tr3 k6 Depth luts=85 depth=11 map=a5fe383850f52327 power=40209cea0ea0ea0e,4031f38e38e38e38,403220a3d70a3d71,3fdc6c77923ed7e3 net=b78dbe102cc32bee opt=0be363d1f98bb203",
    "op.mul8s_tr3 k6 Area luts=95 depth=21 map=07c30b64318ed2e9 power=4022f83a83a83a84,40310338e38e38e3,4032247ae147ae14,3fdce1f1de8a4e1f net=b78dbe102cc32bee opt=0be363d1f98bb203",
    "op.mul8s_tr4 k4 Depth luts=146 depth=17 map=a363273e43abfab0 power=402c15b6db6db6db,4032e38e38e38e39,40323810624dd2f2,3fdbcad2ccc7a9b7 net=441233819f524e8b opt=81108d14a6c37f3d",
    "op.mul8s_tr4 k4 Area luts=131 depth=22 map=6ce1bc9d1276c144 power=4029710750750750,40310ca4fa4fa4fa,4032324dd2f1a9fc,3fdc122238c73fd4 net=441233819f524e8b opt=81108d14a6c37f3d",
    "op.mul8s_tr4 k6 Depth luts=79 depth=11 map=7cb0d1c37cfe00a6 power=401f112492492493,4030f24444444444,40321e5604189375,3fdc9a53c02e89a5 net=441233819f524e8b opt=81108d14a6c37f3d",
    "op.mul8s_tr4 k6 Area luts=90 depth=21 map=3088e49e31848544 power=40220c9249249249,402fc0eeeeeeeeee,4032228f5c28f5c3,3fdd0287b48e9b07 net=441233819f524e8b opt=81108d14a6c37f3d",
    "op.mul8s_tr5 k4 Depth luts=129 depth=15 map=199b54334b6e11ae power=402910ea0ea0ea0e,40313d71c71c71c7,40323189374bc6a8,3fdc16fad0c7880f net=388d4b996962c77e opt=99fa54eedd5a32fa",
    "op.mul8s_tr5 k4 Area luts=123 depth=19 map=713cd35b8c737848 power=40281a0ea0ea0ea1,402fb7f49f49f49e,40322f3b645a1cac,3fdc50cd5680afdf net=388d4b996962c77e opt=99fa54eedd5a32fa",
    "op.mul8s_tr5 k6 Depth luts=73 depth=9 map=8bde774131ba4f59 power=401d8be2be2be2bf,402ef0e38e38e38d,40321c083126e979,3fdd50f342faa87a net=388d4b996962c77e opt=99fa54eedd5a32fa",
    "op.mul8s_tr5 k6 Area luts=82 depth=17 map=9a2209d651bbd60c power=4020b1f15f15f15f,402d3d82d82d82d8,40321f7ced916873,3fdd69bbd5357d24 net=388d4b996962c77e opt=99fa54eedd5a32fa",
    "op.mul8s_tr6 k4 Depth luts=118 depth=15 map=b40279ac3d8da7e1 power=4027536db6db6db7,402f3d5555555555,40322d4fdf3b645a,3fdc8c76a1349532 net=1d3c59ec0b80a3df opt=99c443655fee4c40",
    "op.mul8s_tr6 k4 Area luts=103 depth=19 map=49105cd83aa63323 power=4024812492492492,402b6438e38e38e4,4032278d4fdf3b64,3fdcc6765a7d51c8 net=1d3c59ec0b80a3df opt=99c443655fee4c40",
    "op.mul8s_tr6 k6 Depth luts=61 depth=9 map=ec0febff27967b8a power=4018f07507507507,402a89e93e93e93f,4032176c8b439581,3fdda1536efb1797 net=1d3c59ec0b80a3df opt=99c443655fee4c40",
    "op.mul8s_tr6 k6 Area luts=69 depth=17 map=0703261b3449a31f power=401cadb6db6db6db,4029957777777777,40321a7ef9db22d1,3fddf84165f84166 net=1d3c59ec0b80a3df opt=99c443655fee4c40",
    "op.mul8s_bam_v4_h1 k4 Depth luts=130 depth=16 map=8af612f92acd0a15 power=4028912492492492,4030fed27d27d27d,403231eb851eb852,3fdb6942da50b694 net=fd9d2e057cccbcf2 opt=5cc26743bf978340",
    "op.mul8s_bam_v4_h1 k4 Area luts=117 depth=20 map=fd5617cfb24b73d5 power=4026592492492492,402eb6c16c16c16a,40322ced916872b0,3fdbb7c61283cdc6 net=fd9d2e057cccbcf2 opt=5cc26743bf978340",
    "op.mul8s_bam_v4_h1 k6 Depth luts=74 depth=10 map=3b5f75f3a6cd991b power=401c478af8af8af9,402eee7d27d27d27,40321c6a7ef9db23,3fdbfd4a7f529fd5 net=fd9d2e057cccbcf2 opt=5cc26743bf978340",
    "op.mul8s_bam_v4_h1 k6 Area luts=81 depth=19 map=dc27668f89377d88 power=401fe6db6db6db6d,402cfb1c71c71c71,40321f1a9fbe76c9,3fdca006b3e2016d net=fd9d2e057cccbcf2 opt=5cc26743bf978340",
    "op.mul8s_bam_v6_h2 k4 Depth luts=97 depth=13 map=6725a5485af57002 power=4022d80000000000,402a0a4fa4fa4fa4,4032253f7ced9168,3fdc3683f93d4fde net=a2e92ea03c9d5a5d opt=e97b7f29dc5c4f0d",
    "op.mul8s_bam_v6_h2 k4 Area luts=86 depth=17 map=3a230f0a7171ae44 power=4020f0af8af8af8b,40272d1c71c71c71,4032210624dd2f1b,3fdc99ef4499ef45 net=a2e92ea03c9d5a5d opt=e97b7f29dc5c4f0d",
    "op.mul8s_bam_v6_h2 k6 Depth luts=58 depth=9 map=52175a15ab506af0 power=4016e80000000000,4027ceeeeeeeeeee,40321645a1cac083,3fdce0b33ba26e0b net=a2e92ea03c9d5a5d opt=e97b7f29dc5c4f0d",
    "op.mul8s_bam_v6_h2 k6 Area luts=61 depth=16 map=a36744b372edd64d power=4018bb3333333334,40264d3333333333,4032176c8b439581,3fdd70244ebc9bff net=a2e92ea03c9d5a5d opt=e97b7f29dc5c4f0d",
    "op.mul8s_bam_v8_h3 k4 Depth luts=68 depth=10 map=7dfe6decb0dbdf96 power=401ab283a83a83a8,402253a4fa4fa4fa,40321a1cac083127,3fdca6375744b13f net=617e05c953298fdc opt=99c38410de6c3020",
    "op.mul8s_bam_v8_h3 k4 Area luts=57 depth=12 map=31afae0dafd1a59c power=4016d9999999999a,401fce6666666666,403215e353f7ced9,3fdd37f14dfc537f net=617e05c953298fdc opt=99c38410de6c3020",
    "op.mul8s_bam_v8_h3 k6 Depth luts=38 depth=6 map=5a34b388e87fa049 power=400f050750750751,4020a26666666666,40320e978d4fdf3b,3fddd54211c24b8d net=617e05c953298fdc opt=99c38410de6c3020",
    "op.mul8s_bam_v8_h3 k6 Area luts=39 depth=11 map=5e7103ce338f8429 power=40102be2be2be2be,401e915555555554,40320ef9db22d0e5,3fde256256256256 net=617e05c953298fdc opt=99c38410de6c3020",
    "op.mul8s_cmp4 k4 Depth luts=163 depth=17 map=d12deac23e865653 power=402e9941d41d41d4,40351cf49f49f49f,40323e978d4fdf3b,3fdb266ed39e9127 net=c489fd0a753929b4 opt=8c2a486619ade3ab",
    "op.mul8s_cmp4 k4 Area luts=149 depth=22 map=04fe01f0a6647288 power=402c29b6db6db6dc,4033776666666666,403239374bc6a7f0,3fdb5ab3babf8cf1 net=c489fd0a753929b4 opt=8c2a486619ade3ab",
    "op.mul8s_cmp4 k6 Depth luts=93 depth=11 map=b1f93f40771ae385 power=4021f87507507508,4032cb38e38e38e3,403223b645a1cac1,3fdc1be29fa1c1be net=c489fd0a753929b4 opt=8c2a486619ade3ab",
    "op.mul8s_cmp4 k6 Area luts=102 depth=21 map=4821bc18bae0f2b9 power=4023e95f15f15f16,40320b0000000000,4032272b020c49ba,3fdc4df6c563a8ab net=c489fd0a753929b4 opt=8c2a486619ade3ab",
    "op.mul8s_cmp8 k4 Depth luts=145 depth=17 map=033c8ee1d1afa72c power=4029b141d41d41d4,4033b2d82d82d82d,403237ae147ae148,3fd9d9fd6cf50560 net=7c4a6a4f006dd4fc opt=41854e8d2c8048f1",
    "op.mul8s_cmp8 k4 Area luts=132 depth=24 map=ece8a7660933e36d power=4027a89249249249,40320cbbbbbbbbbc,403232b020c49ba6,3fda2af0f43fb2af net=7c4a6a4f006dd4fc opt=41854e8d2c8048f1",
    "op.mul8s_cmp8 k6 Depth luts=96 depth=12 map=6435fa1d78578d95 power=402109f15f15f160,4032e1eeeeeeeeef,403224dd2f1a9fbe,3fda2c43567e8c7b net=7c4a6a4f006dd4fc opt=41854e8d2c8048f1",
    "op.mul8s_cmp8 k6 Area luts=97 depth=24 map=a43086d0d9be86f7 power=402209f15f15f15f,40310a3333333333,4032253f7ced9168,3fdb332bd5dad137 net=7c4a6a4f006dd4fc opt=41854e8d2c8048f1",
    "op.mul8s_cmp10 k4 Depth luts=138 depth=17 map=db3f9ddad2234294 power=4027ec0000000000,4032bd2d82d82d83,403234fdf3b645a2,3fd964371838fe93 net=399eb887721e731f opt=d808da2e93348f6e",
    "op.mul8s_cmp10 k4 Area luts=124 depth=24 map=e1a9c50446b6fbbe power=40259a4924924925,403148c71c71c71c,40322f9db22d0e56,3fd9931931931932 net=399eb887721e731f opt=d808da2e93348f6e",
    "op.mul8s_cmp10 k6 Depth luts=93 depth=13 map=ca915d4142923f57 power=4020243a83a83a84,40323d1111111111,403223b645a1cac1,3fd9b8f1def85b8f net=399eb887721e731f opt=d808da2e93348f6e",
    "op.mul8s_cmp10 k6 Area luts=92 depth=24 map=80c25fd840c4203f power=4020bf3333333333,403019c16c16c16c,40322353f7ced917,3fdac1fe7eb8833c net=399eb887721e731f opt=d808da2e93348f6e",
    "op.mul8s_loa4 k4 Depth luts=197 depth=14 map=2737501a5ea3c576 power=40312883a83a83a8,403946c71c71c71c,40324ba5e353f7cf,3fd94c7b3d7c8e78 net=6d4603862b516207 opt=56e421198301ed1d",
    "op.mul8s_loa4 k4 Area luts=173 depth=15 map=78d48e3f23347d2e power=402e199999999999,40362baaaaaaaaab,4032426e978d4fdf,3fd9569f929bb3e4 net=6d4603862b516207 opt=56e421198301ed1d",
    "op.mul8s_loa4 k6 Depth luts=159 depth=8 map=c40437c583bbb495 power=402bccaf8af8af8b,403dc7b60b60b60b,40323d0e56041893,3fd97ef188b224bc net=6d4603862b516207 opt=56e421198301ed1d",
    "op.mul8s_loa4 k6 Area luts=150 depth=14 map=0211dbe1c0f6333d power=402a183a83a83a84,40355fe38e38e38e,403239999999999a,3fd96adfeec4520e net=6d4603862b516207 opt=56e421198301ed1d",
    "op.mul8s_loa6 k4 Depth luts=193 depth=13 map=1f1698ddddac3439 power=4030bb999999999a,4038b360b60b60b5,40324a1cac083127,3fd93434073b8d72 net=93c98edc270e0a8d opt=0df2cf0847f1a45a",
    "op.mul8s_loa6 k4 Area luts=171 depth=15 map=7a081e705772c437 power=402ddfa83a83a83a,4035dac71c71c71c,403241a9fbe76c8b,3fd96fee44b5bfb9 net=93c98edc270e0a8d opt=0df2cf0847f1a45a",
    "op.mul8s_loa6 k6 Depth luts=155 depth=8 map=9ab0dc3f2c92f6ff power=402b649249249249,403d1c2222222221,40323b851eb851ec,3fd9c1071aec7166 net=93c98edc270e0a8d opt=0df2cf0847f1a45a",
    "op.mul8s_loa6 k6 Area luts=148 depth=14 map=9f1970f51902b88f power=4029e73333333333,4035243333333333,403238d4fdf3b646,3fd98fb578384b53 net=93c98edc270e0a8d opt=0df2cf0847f1a45a",
    "op.mul8s_loa8 k4 Depth luts=190 depth=12 map=02d84740b3c80544 power=40307ecccccccccd,40386616c16c16c1,403248f5c28f5c29,3fd93e36fec6e9f2 net=5fa26c3f3f4a7857 opt=c15b0ae020c8aea3",
    "op.mul8s_loa8 k4 Area luts=169 depth=15 map=49b055828d65ee66 power=402d82f8af8af8af,403599cccccccccc,403240e560418937,3fd96f137b9896f1 net=5fa26c3f3f4a7857 opt=c15b0ae020c8aea3",
    "op.mul8s_loa8 k6 Depth luts=151 depth=8 map=821a4b924d05afd3 power=402a9fc57c57c57c,403c3aaaaaaaaaa9,403239fbe76c8b44,3fd9b7580287d2a5 net=5fa26c3f3f4a7857 opt=c15b0ae020c8aea3",
    "op.mul8s_loa8 k6 Area luts=146 depth=14 map=4e51abcc5353c04c power=40296edb6db6db6e,4034c5d27d27d27d,40323810624dd2f2,3fd976d837c90477 net=5fa26c3f3f4a7857 opt=c15b0ae020c8aea3",
    "op.mul8s_booth k4 Depth luts=153 depth=21 map=bb26d8066c4f4a14 power=402cb857c57c57c5,40356d5555555555,40323ac083126e98,3fdb2cfca868105a net=f123d0f6c756a63b opt=2099e899e9259e27",
    "op.mul8s_booth k4 Area luts=157 depth=29 map=5985eb4daa028bec power=402df60ea0ea0ea1,4033c238e38e38e4,40323c49ba5e353f,3fdb91529bd26eb9 net=f123d0f6c756a63b opt=2099e899e9259e27",
    "op.mul8s_booth k6 Depth luts=110 depth=12 map=d5e128f363fdf2f8 power=40253b3333333334,40373b1c71c71c71,40322a3d70a3d70a,3fdbff39db3c2daa net=f123d0f6c756a63b opt=2099e899e9259e27",
    "op.mul8s_booth k6 Area luts=116 depth=26 map=49315a5c9cc0e25c power=40268edb6db6db6e,4034b8bbbbbbbbbb,40322c8b43958106,3fdc27674fab4848 net=f123d0f6c756a63b opt=2099e899e9259e27",
    "op.mul8s_booth_tr3 k4 Depth luts=119 depth=14 map=34fc94cff52fd098 power=4028262be2be2be3,403085f49f49f49f,40322db22d0e5604,3fdd34580321617e net=337be64faf3e41ef opt=0fc978d50fc4e0dd",
    "op.mul8s_booth_tr3 k4 Area luts=119 depth=14 map=76bb205e2f4c0faf power=402822a0ea0ea0ea,403064c16c16c16c,40322db22d0e5604,3fdd309c850aaf7c net=337be64faf3e41ef opt=0fc978d50fc4e0dd",
    "op.mul8s_booth_tr3 k6 Depth luts=77 depth=7 map=fab22e96f0eac827 power=4020843a83a83a84,40309171c71c71c7,40321d916872b021,3fdeb8a6090037ed net=337be64faf3e41ef opt=0fc978d50fc4e0dd",
    "op.mul8s_booth_tr3 k6 Area luts=84 depth=13 map=4f8ab1cf7583db97 power=4021bc57c57c57c5,40302d1111111111,4032204189374bc7,3fde4e04e04e04e0 net=337be64faf3e41ef opt=0fc978d50fc4e0dd",
    "op.mul8s_booth_tr5 k4 Depth luts=102 depth=12 map=07c4494f95c82e11 power=402457c57c57c57d,402e038e38e38e38,4032272b020c49ba,3fdcd306ae3f802c net=514d4709aa22f349 opt=f5bb9b5d7a91d8e7",
    "op.mul8s_booth_tr5 k4 Area luts=104 depth=13 map=1ae63ff6f36cfd02 power=4024f95f15f15f16,402c72fa4fa4fa4f,403227ef9db22d0e,3fdd179179179179 net=514d4709aa22f349 opt=f5bb9b5d7a91d8e7",
    "op.mul8s_booth_tr5 k6 Depth luts=65 depth=7 map=41816b712ca0dd9e power=401ba75075075075,402b748888888888,403218f5c28f5c29,3fde8cc473c8d118 net=514d4709aa22f349 opt=f5bb9b5d7a91d8e7",
    "op.mul8s_booth_tr5 k6 Area luts=72 depth=12 map=e4f0e13fb61311e6 power=401e36db6db6db6d,402b5ed82d82d82d,40321ba5e353f7cf,3fde30647aa4c192 net=514d4709aa22f349 opt=f5bb9b5d7a91d8e7",
    "op.mul8s_log k4 Depth luts=192 depth=23 map=bb32d015861bb2f9 power=402ebbc57c57c57d,4035d3ddddddddde,403249ba5e353f7d,3fd774fb4fb4fb50 net=6939e76b24761af0 opt=f59001b4339020ca",
    "op.mul8s_log k4 Area luts=203 depth=37 map=f2cc08b9c515ce1f power=402f2caf8af8af8a,40332c999999999a,40324df3b645a1cb,3fd690b0a42c290b net=6939e76b24761af0 opt=f59001b4339020ca",
    "op.mul8s_log k6 Depth luts=158 depth=13 map=49fcd21be196e374 power=40292ba83a83a83b,40393eb60b60b60c,40323cac083126e9,3fd77e57874f42ee net=6939e76b24761af0 opt=f59001b4339020ca",
    "op.mul8s_log k6 Area luts=176 depth=33 map=6f46b211a9a13f6e power=402b52f8af8af8b0,403541fa4fa4fa4f,40324395810624dd,3fd6e2e0d8b8362e net=6939e76b24761af0 opt=f59001b4339020ca",
    "op.mul8s_drum3 k4 Depth luts=183 depth=20 map=1e14db266f1dc87c power=402b287507507507,40348927d27d27d2,40324645a1cac083,3fd5f6671e679bdd net=84fddca97803cbc5 opt=174fa6bbf63ebf12",
    "op.mul8s_drum3 k4 Area luts=199 depth=32 map=2978e05848f73014 power=402d1c3a83a83a84,40327160b60b60b6,40324c6a7ef9db23,3fd59e96ef630e01 net=84fddca97803cbc5 opt=174fa6bbf63ebf12",
    "op.mul8s_drum3 k6 Depth luts=130 depth=12 map=d9c9d5003d1d9d44 power=4023e80000000001,40366faaaaaaaaaa,403231eb851eb852,3fd6defdb7bf6df0 net=84fddca97803cbc5 opt=174fa6bbf63ebf12",
    "op.mul8s_drum3 k6 Area luts=167 depth=29 map=271adbed8edab185 power=4027ddb6db6db6db,4033a8e38e38e38e,40324020c49ba5e3,3fd553062697920b net=84fddca97803cbc5 opt=174fa6bbf63ebf12",
    "op.mul8s_drum4 k4 Depth luts=209 depth=23 map=9c7d3313ac83a959 power=402ff92492492493,4036c2eeeeeeeeef,4032504189374bc7,3fd677e1cdc1d66d net=10d29f0be5d9baa6 opt=1fe94c7a4f734116",
    "op.mul8s_drum4 k4 Area luts=228 depth=35 map=9e0b7f2e2f30afd6 power=40311bd41d41d41e,4034981c71c71c71,4032578d4fdf3b64,3fd606dc7e915a65 net=10d29f0be5d9baa6 opt=1fe94c7a4f734116",
    "op.mul8s_drum4 k6 Depth luts=166 depth=13 map=42e164627f77ee8b power=402982f8af8af8b0,403a31fa4fa4fa50,40323fbe76c8b439,3fd6ba34c7dec711 net=10d29f0be5d9baa6 opt=1fe94c7a4f734116",
    "op.mul8s_drum4 k6 Area luts=200 depth=33 map=0d6d9b103b6f8a55 power=402e420ea0ea0ea1,40363c999999999a,40324ccccccccccd,3fd6466f119bc467 net=10d29f0be5d9baa6 opt=1fe94c7a4f734116",
    "op.mul8s_drum5 k4 Depth luts=244 depth=25 map=cf16a11d3de25ef4 power=4033e78af8af8af8,403bd23333333333,40325db22d0e5604,3fd7badbadbadbae net=c73c94ff96a895c3 opt=09107f7ef9f90432",
    "op.mul8s_drum5 k4 Area luts=255 depth=33 map=8c2e41c74da68cc3 power=4035272492492492,4038417777777777,403261eb851eb852,3fd813bb90bdc503 net=c73c94ff96a895c3 opt=09107f7ef9f90432",
    "op.mul8s_drum5 k6 Depth luts=189 depth=15 map=613b077f0b932e48 power=402ece6666666666,40403182d82d82d8,4032489374bc6a7f,3fd7d9c889cd4ba9 net=c73c94ff96a895c3 opt=09107f7ef9f90432",
    "op.mul8s_drum5 k6 Area luts=224 depth=30 map=3000b9e50b006b43 power=4032e75075075075,40393aa4fa4fa4fa,40325604189374bc,3fd8856b015ac057 net=c73c94ff96a895c3 opt=09107f7ef9f90432",
    "op.mul8s_drum6 k4 Depth luts=279 depth=28 map=62d45d2ddebadccb power=4037981d41d41d42,403e605555555554,40326b22d0e56042,3fd878e2ac8a3dcb net=5c78212b3bfac2a0 opt=a679b467d6984bcf",
    "op.mul8s_drum6 k4 Area luts=295 depth=38 map=92dabe4d9427632a power=4039553333333333,403b4a93e93e93e9,40327147ae147ae1,3fd8cda8392d2485 net=5c78212b3bfac2a0 opt=a679b467d6984bcf",
    "op.mul8s_drum6 k6 Depth luts=213 depth=17 map=14a5b74bc84f7410 power=4031fd3333333333,4041466eeeeeeeee,403251cac083126f,3fd8902808176c39 net=5c78212b3bfac2a0 opt=a679b467d6984bcf",
    "op.mul8s_drum6 k6 Area luts=266 depth=35 map=2e3c7b3ce60ccc1f power=4036ae1d41d41d42,403d968e38e38e38,40326624dd2f1aa0,3fd8ada9f239771c net=5c78212b3bfac2a0 opt=a679b467d6984bcf",
];

#[rustfmt::skip]
const ACCEL_GOLDEN: &[&str] = &[
    "cfg.golden3 luts=1146 cycles=291 f64=40261cac083126e9,40569cb646640769,40569cb646640769,40612005ee2c666e,4043a31fcee2a05d,40537bc88d4683a4,4097aab852e23996,3fdc359b438c3a7c net=ac44b9f011be3857 opt=3726feda1b68a956",
    "cfg.sep_mixed luts=727 cycles=550 f64=4023d0e560418938,40593b6d3de83ab3,40593b6d3de83ab3,405966893f59c0c7,403a6cdd866e0dca,404c0387784fd52f,408f756417cdc04c,3fe1b7ab784fd592 net=e51b4850d7b663ad opt=87e8fa2a692c3ed5",
    "cfg.twod_mixed_s2_ds luts=1146 cycles=291 f64=40286872b020c49c,40547c2ea6f98a07,40547c2ea6f98a07,4047611c17837b5b,4021a4f46287db77,403226dbe45ddd27,4081d524779126dc,3fc5415b8dae3d8e net=d6bbc8d3ce97f7a4 opt=cd939edf7ee03779",
    "cfg.sampled0 luts=1275 cycles=291 f64=402ab4395810624e,4052b94a15c7dc6a,4052b94a15c7dc6a,405fca73828da129,4041cb635f2a231b,4051e5ac1d84a4e8,409a87899bec34b2,3fdf9f13fd4d8326 net=94ef9ad221a8b86a opt=99cdc2c05e492f69",
    "cfg.sampled1 luts=786 cycles=110 f64=40261cac083126e9,40569cb646640769,40569cb646640769,404c6d22d4edea38,40283e7ddb45114e,403982f3130f1b74,4083a48042c00c15,3fb1b348680f1da6 net=9f436d66df392d73 opt=18bbc5718a953885",
];
