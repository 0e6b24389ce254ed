//! Micro-benchmarks of the numerical kernels: FFT, lithography imaging
//! (forward and vjp), etch projection and EOLE field realisation.

use boson_fab::{EoleField, EoleParams, EtchProjection};
use boson_litho::{LithoConfig, LithoCorner, LithoModel};
use boson_num::fft::fft2;
use boson_num::{Array2, Complex64};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fft(c: &mut Criterion) {
    let a = Array2::from_fn(128, 128, |r, cc| {
        Complex64::new((r as f64 * 0.1).sin(), (cc as f64 * 0.2).cos())
    });
    c.bench_function("fft2_128x128", |b| {
        b.iter(|| {
            let mut x = a.clone();
            fft2(&mut x);
            black_box(x)
        })
    });
}

fn bench_litho(c: &mut Criterion) {
    for n in [36, 28] {
        let model = LithoModel::new(n, n, 0.05, LithoConfig::default());
        let mask = Array2::from_fn(n, n, |r, _| if r.abs_diff(n / 2) < 5 { 1.0 } else { 0.0 });
        c.bench_function(&format!("litho_forward_{n}x{n}"), |b| {
            b.iter(|| black_box(model.aerial_image(&mask, LithoCorner::Nominal)))
        });
        let fwd = model.aerial_image(&mask, LithoCorner::Nominal);
        let v = Array2::filled(n, n, 0.5);
        c.bench_function(&format!("litho_vjp_{n}x{n}"), |b| {
            b.iter(|| black_box(model.vjp(&fwd, &v)))
        });
    }
}

fn bench_etch(c: &mut Criterion) {
    let n = 36;
    let proj = EtchProjection::new(25.0);
    let intensity = Array2::from_fn(n, n, |r, cc| ((r * cc) as f64 * 0.001).min(1.0));
    let eta = Array2::filled(n, n, 0.5);
    c.bench_function("etch_project_36x36", |b| {
        b.iter(|| black_box(proj.project_image(&intensity, &eta)))
    });
}

fn bench_eole(c: &mut Criterion) {
    let field = EoleField::new(36, 40, 0.05, EoleParams::default());
    let xi = vec![0.7; field.terms()];
    c.bench_function("eole_realise_36x40", |b| {
        b.iter(|| black_box(field.realise(&xi, 0.02)))
    });
    c.bench_function("eole_build_36x40", |b| {
        b.iter(|| black_box(EoleField::new(36, 40, 0.05, EoleParams::default())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fft, bench_litho, bench_etch, bench_eole
}
criterion_main!(benches);
