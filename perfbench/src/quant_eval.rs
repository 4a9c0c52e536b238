//! `quant-eval`: block-pruned SQN, HAR and CKS models evaluated sample by
//! sample through the three integer engines — host Q15, host Q8 and the
//! HAWAII device engine in continuous mode.

use crate::report::{mix, repeat_setup, run_units, Fnv, Report, Tally};
use crate::trace::{total_s, Tracer};
use crate::{Opts, SETUPS};
use iprune_repro::datasets::Dataset;
use iprune_repro::device::{DeviceSim, PowerStrength};
use iprune_repro::hawaii::deploy::{deploy, DeployedModel};
use iprune_repro::hawaii::exec::{infer, ExecMode};
use iprune_repro::models::arch::{GraphOp, ModelInfo, PrunableKind};
use iprune_repro::models::graphref::run_graph;
use iprune_repro::models::qeval::{Quantized8Model, QuantizedModel, DEFAULT_CALIBRATION};
use iprune_repro::models::zoo::App;
use iprune_repro::models::LayerWeights;
use iprune_repro::tensor::exec::ExecCtx;
use iprune_repro::tensor::pack::{im2col_patches, ConvShape, PackElem};
use iprune_repro::tensor::qgemm::{q15_gemm, q8_gemm};
use iprune_repro::tensor::{pool, simd, Q8Format, QFormat};
use std::time::Instant;

/// Kept-weight share of the block-pruned models (ppm).
const KEEP_PPM: u32 = 500_000;
/// Samples evaluated per app and engine in one pass.
const SAMPLES: usize = 16;
/// Samples per app re-run at the scalar dispatch level for the Q8 check.
const SCALAR_CHECK: usize = 16;
/// Repetitions of each app's kernel sequence in the kernel probe.
const PROBE_REPS: usize = 20;

struct AppModels {
    name: &'static str,
    info: ModelInfo,
    weights: Vec<LayerWeights>,
    q15: QuantizedModel,
    q8: Quantized8Model,
    dm: DeployedModel,
    ds: Dataset,
}

fn setup(seed: u64) -> Vec<AppModels> {
    App::all()
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let mut model = app.build();
            let masks = model.block_magnitude_masks(KEEP_PPM);
            model.set_masks(&masks);
            let ds = app.dataset(SAMPLES, mix(seed, i as u64));
            // one calibration recipe for the host engines and the deploy,
            // so host Q15 and the device agree bit for bit
            let q15 = QuantizedModel::quantize(&mut model, &ds, DEFAULT_CALIBRATION);
            let q8 = Quantized8Model::quantize(&mut model, &ds, DEFAULT_CALIBRATION);
            let dm = deploy(&mut model, &ds, DEFAULT_CALIBRATION);
            let name = match app {
                App::Sqn => "sqn",
                App::Har => "har",
                App::Cks => "cks",
            };
            let weights = model.extract_weights();
            AppModels { name, info: model.info.clone(), weights, q15, q8, dm, ds }
        })
        .collect()
}

/// One pass's outputs for one app: logits per engine, device jobs, and
/// host seconds per engine.
struct AppPass {
    q15: Vec<Vec<f32>>,
    q8: Vec<Vec<f32>>,
    device: Vec<Vec<f32>>,
    jobs: u64,
    secs: [f64; 3],
}

fn eval_app(a: &AppModels, tracer: &Tracer) -> AppPass {
    let n = a.ds.len();
    let mut ctx = ExecCtx::new();
    let t0 = Instant::now();
    let q15 = tracer.span(&format!("qeval.q15.{}", a.name), || {
        (0..n).map(|i| a.q15.forward_q15_with(&a.ds.sample(i), &mut ctx)).collect::<Vec<_>>()
    });
    let t1 = Instant::now();
    let q8 = tracer.span(&format!("qeval.q8.{}", a.name), || {
        (0..n).map(|i| a.q8.forward_q8_with(&a.ds.sample(i), &mut ctx)).collect::<Vec<_>>()
    });
    let t2 = Instant::now();
    let mut jobs = 0;
    let device = tracer.span(&format!("hawaii.infer.{}", a.name), || {
        (0..n)
            .map(|i| {
                let mut sim = DeviceSim::new(PowerStrength::Continuous, 0);
                match infer(&a.dm, &a.ds.sample(i), &mut sim, ExecMode::Continuous) {
                    Ok(out) => {
                        jobs += out.jobs;
                        out.logits
                    }
                    Err(_) => Vec::new(),
                }
            })
            .collect::<Vec<_>>()
    });
    let t3 = Instant::now();
    let secs = [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64()];
    AppPass { q15, q8, device, jobs, secs }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the workload.
pub fn run(o: &Opts) -> Report {
    let mut report = Report::default();
    let (setup_s, apps) = repeat_setup(SETUPS, || setup(o.seed));
    report.setup_s = setup_s;
    let tracer = Tracer::new();

    let mut engine_s = [0.0f64; 3];
    let (units, mut pass, sum) = run_units(
        o,
        &tracer,
        &mut report,
        "quant.passes_repeat",
        |_, traced| {
            let pass: Vec<AppPass> = apps.iter().map(|a| eval_app(a, &tracer)).collect();
            if !traced {
                for p in &pass {
                    for (acc, s) in engine_s.iter_mut().zip(p.secs) {
                        *acc += s;
                    }
                }
            }
            pass
        },
        |pass| {
            let mut h = Fnv::new();
            for p in pass.iter() {
                for l in p.q15.iter().chain(&p.q8).chain(&p.device) {
                    h.f32s(l);
                }
                h.u64(p.jobs);
            }
            h.finish()
        },
    );
    report.unit_s = units.untraced_s.clone();
    report.attempted = (3 * SAMPLES * apps.len() * units.count()) as u64;

    // Host Q15 equals the device engine on every sample.
    if o.corrupt {
        let l = &mut pass[0].q15[0];
        l[0] = f32::from_bits(l[0].to_bits() ^ 1);
    }
    let mut q15_dev = Tally::default();
    for (a, p) in apps.iter().zip(&pass) {
        for (i, (h, d)) in p.q15.iter().zip(&p.device).enumerate() {
            q15_dev.op(bits(h) == bits(d), || {
                format!("{} sample {i}: host {h:?} vs device {d:?}", a.name)
            });
        }
    }
    q15_dev.finish(&mut report, "quant.q15_equals_device");

    // Q8 at the dispatched level equals the scalar spec on a subset.
    let level = simd::simd_level();
    simd::set_simd_level(simd::SimdLevel::Scalar);
    let mut q8_spec = Tally::default();
    let mut ctx = ExecCtx::new();
    for (a, p) in apps.iter().zip(&pass) {
        for i in 0..SCALAR_CHECK.min(a.ds.len()) {
            let spec = a.q8.forward_q8_with(&a.ds.sample(i), &mut ctx);
            q8_spec.op(bits(&spec) == bits(&p.q8[i]), || {
                format!("{} sample {i}: dispatched {:?} vs scalar {spec:?}", a.name, p.q8[i])
            });
        }
    }
    simd::set_simd_level(level);
    q8_spec.finish(&mut report, "quant.q8_equals_scalar_spec");

    let samples = (SAMPLES * apps.len() * units.untraced_s.len()) as f64;
    let names = ["eval_q15_sps", "eval_q8_sps", "eval_device_sps"];
    for (name, secs) in names.iter().zip(engine_s) {
        report.detail(name, samples / secs, "samples/s");
    }
    report.checksum = sum;

    if o.trace {
        let spans = tracer.spans();
        let passes = units.traced_s.len() as f64;
        let per_sample = (SAMPLES as f64) * passes;
        let mut fwd_s = [0.0f64; 2];
        let mut device_s = 0.0;
        for a in &apps {
            for (k, engine) in ["qeval.q15", "qeval.q8", "hawaii.infer"].iter().enumerate() {
                let t = total_s(&spans, &format!("{engine}.{}", a.name));
                report.layer(&format!("{engine}.{}_us", a.name), t * 1e6 / per_sample, "us");
                if k < 2 {
                    fwd_s[k] += t / per_sample;
                } else {
                    device_s += t;
                }
            }
        }
        let jobs: u64 = pass.iter().map(|p| p.jobs).sum();
        report.layer("hawaii.us_per_job", device_s * 1e6 / (jobs as f64 * passes), "us");
        units.counters.report_tensor(&mut report);
        kernel_probe(&apps, fwd_s, &mut report);
        report.layer("trace.overhead_share", units.overhead(), "fraction");
        crate::write_trace(o, &spans);
    }
    report
}

/// Kernel seconds of one forward pass, by kernel family, summed over apps.
#[derive(Default)]
struct KernelTimes {
    gemm: f64,
    im2col: f64,
    pool: f64,
    macs: u64,
}

/// The two integer engines' element types, with their operands quantized
/// the way `models::qeval` quantizes them.
trait ProbeElem: Copy + Default + PackElem {
    type Bias: Copy;
    /// One layer's weights and bias at the engine's formats for input
    /// fraction `in_frac`: (weights, weight fraction, bias, bias shift).
    fn layer(lw: &LayerWeights, in_frac: u8) -> (Vec<Self>, u8, Vec<Self::Bias>, u32);
    fn act(v: f32, frac: u8) -> Self;
    /// GEMM at dims `(m, k, n)` and fractions `(in, w, out)`.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        a: &[Self],
        b: &[Self],
        bias: &[Self::Bias],
        bias_shift: u32,
        c: &mut [Self],
        dims: (usize, usize, usize),
        fracs: (u8, u8, u8),
        relu: bool,
    );
    fn pool(src: &[Self], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [Self]);
}

impl ProbeElem for i16 {
    type Bias = i16;
    fn layer(lw: &LayerWeights, in_frac: u8) -> (Vec<i16>, u8, Vec<i16>, u32) {
        let w_fmt = QFormat::for_max_abs(lw.w.max_abs());
        let w = lw.w.data().iter().map(|&v| w_fmt.quantize(v)).collect();
        let acc_frac = in_frac + w_fmt.frac_bits();
        let natural = QFormat::for_max_abs(lw.b.max_abs().max(1e-6));
        let b_fmt = QFormat::new(natural.frac_bits().min(acc_frac).min(15));
        let bias = lw.b.data().iter().map(|&v| b_fmt.quantize(v)).collect();
        (w, w_fmt.frac_bits(), bias, (acc_frac - b_fmt.frac_bits()) as u32)
    }
    fn act(v: f32, frac: u8) -> i16 {
        QFormat::new(frac).quantize(v)
    }
    fn gemm(
        a: &[i16],
        b: &[i16],
        bias: &[i16],
        bias_shift: u32,
        c: &mut [i16],
        (m, k, n): (usize, usize, usize),
        (in_frac, w_frac, out_frac): (u8, u8, u8),
        relu: bool,
    ) {
        q15_gemm(a, b, bias, bias_shift, c, m, k, n, in_frac, w_frac, out_frac, relu);
    }
    fn pool(src: &[i16], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i16]) {
        pool::maxpool2d_i16(src, h, w, kh, kw, dst);
    }
}

impl ProbeElem for i8 {
    type Bias = i32;
    fn layer(lw: &LayerWeights, in_frac: u8) -> (Vec<i8>, u8, Vec<i32>, u32) {
        let w_fmt = Q8Format::for_max_abs(lw.w.max_abs().max(1e-6));
        let w = lw.w.data().iter().map(|&v| w_fmt.quantize(v)).collect();
        let scale = (1i64 << (in_frac + w_fmt.frac_bits())) as f64;
        let bias =
            lw.b.data()
                .iter()
                .map(|&v| (v as f64 * scale).round().clamp(i32::MIN as f64, i32::MAX as f64) as i32)
                .collect();
        (w, w_fmt.frac_bits(), bias, 0)
    }
    fn act(v: f32, frac: u8) -> i8 {
        Q8Format::new(frac).quantize(v)
    }
    fn gemm(
        a: &[i8],
        b: &[i8],
        bias: &[i32],
        _bias_shift: u32,
        c: &mut [i8],
        (m, k, n): (usize, usize, usize),
        (in_frac, w_frac, out_frac): (u8, u8, u8),
        relu: bool,
    ) {
        q8_gemm(a, b, bias, c, m, k, n, in_frac, w_frac, out_frac, relu);
    }
    fn pool(src: &[i8], h: usize, w: usize, kh: usize, kw: usize, dst: &mut [i8]) {
        pool::maxpool2d_i8(src, h, w, kh, kw, dst);
    }
}

/// Times each GEMM, im2col and max-pool call of one forward, `PROBE_REPS`
/// times, on the model's own operands: weights and biases quantized as the
/// engine does, activations of sample 0 from the float reference at the
/// engine's calibrated buffer formats `fracs`.
fn probe<T: ProbeElem>(a: &AppModels, fracs: &[u8]) -> KernelTimes {
    let bufs = run_graph(&a.info, &a.weights, &a.ds.sample(0));
    let act = |buf: usize| -> Vec<T> { bufs[buf].iter().map(|&v| T::act(v, fracs[buf])).collect() };
    let mut t = KernelTimes::default();
    for op in &a.info.graph {
        match op {
            GraphOp::Conv { layer_id, src, dst, relu, .. }
            | GraphOp::Fc { layer_id, src, dst, relu } => {
                let p = &a.info.prunables[*layer_id];
                let (w, w_frac, bias, shift) = T::layer(&a.weights[*layer_id], fracs[*src]);
                let input = act(*src);
                let (m, k, n, b) = match p.kind {
                    PrunableKind::Conv { cin, cout, kh, kw, stride, pad_h, pad_w, in_h, in_w } => {
                        let (out_h, out_w) = p.out_hw();
                        let s = ConvShape {
                            cin,
                            kh,
                            kw,
                            stride,
                            pad_h,
                            pad_w,
                            in_h,
                            in_w,
                            out_h,
                            out_w,
                        };
                        let mut col = vec![T::default(); s.col_len()];
                        let t0 = Instant::now();
                        for _ in 0..PROBE_REPS {
                            im2col_patches(&input[..s.in_len()], &s, &mut col);
                        }
                        t.im2col += t0.elapsed().as_secs_f64();
                        (cout, s.k(), s.out_hw(), col)
                    }
                    PrunableKind::Fc { din, dout } => (dout, din, 1, input[..din].to_vec()),
                };
                let mut c = vec![T::default(); m * n];
                let fr = (fracs[*src], w_frac, fracs[*dst]);
                let t0 = Instant::now();
                for _ in 0..PROBE_REPS {
                    T::gemm(&w, &b, &bias, shift, &mut c, (m, k, n), fr, *relu);
                }
                t.gemm += t0.elapsed().as_secs_f64();
                std::hint::black_box(&c);
                t.macs += (m * k * n) as u64;
            }
            GraphOp::MaxPool { src, dst, kh, kw } => {
                let (sd, dd) = (&a.info.buffers[*src].dims, &a.info.buffers[*dst].dims);
                let (ch, ih, iw, oh, ow) = (sd[0], sd[1], sd[2], dd[1], dd[2]);
                let input = act(*src);
                let mut out = vec![T::default(); ch * oh * ow];
                let t0 = Instant::now();
                for _ in 0..PROBE_REPS {
                    for c in 0..ch {
                        T::pool(
                            &input[c * ih * iw..(c + 1) * ih * iw],
                            ih,
                            iw,
                            *kh,
                            *kw,
                            &mut out[c * oh * ow..(c + 1) * oh * ow],
                        );
                    }
                }
                t.pool += t0.elapsed().as_secs_f64();
                std::hint::black_box(&out);
            }
            GraphOp::GlobalAvgPool { .. } | GraphOp::Flatten { .. } => {}
        }
    }
    let reps = PROBE_REPS as f64;
    KernelTimes { gemm: t.gemm / reps, im2col: t.im2col / reps, pool: t.pool / reps, macs: t.macs }
}

/// Kernel shares of the Q15 and Q8 forward passes, and each GEMM's
/// achieved rate. `fwd_s` is the measured seconds of one forward per app,
/// summed over apps, for Q15 and Q8.
fn kernel_probe(apps: &[AppModels], fwd_s: [f64; 2], report: &mut Report) {
    for (k, tag) in ["q15", "q8"].iter().enumerate() {
        let mut sum = KernelTimes::default();
        for a in apps {
            let t = if k == 0 {
                let fracs: Vec<u8> = a.q15.buf_fmts().iter().map(|f| f.frac_bits()).collect();
                probe::<i16>(a, &fracs)
            } else {
                let fracs: Vec<u8> = a.q8.buf_fmts().iter().map(|f| f.frac_bits()).collect();
                probe::<i8>(a, &fracs)
            };
            sum.gemm += t.gemm;
            sum.im2col += t.im2col;
            sum.pool += t.pool;
            sum.macs += t.macs;
        }
        let f = fwd_s[k];
        report.layer(&format!("qeval.{tag}.gemm_share"), sum.gemm / f, "fraction");
        report.layer(&format!("qeval.{tag}.im2col_share"), sum.im2col / f, "fraction");
        report.layer(&format!("qeval.{tag}.pool_share"), sum.pool / f, "fraction");
        report.layer(
            &format!("qeval.{tag}.other_share"),
            1.0 - (sum.gemm + sum.im2col + sum.pool) / f,
            "fraction",
        );
        report.layer(
            &format!("tensor.{tag}_gemm_gmacs"),
            sum.macs as f64 * 1e-9 / sum.gemm,
            "GMAC/s",
        );
    }
}
