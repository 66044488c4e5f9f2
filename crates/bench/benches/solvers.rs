//! Criterion benches of the numerical kernels that regenerate every
//! figure: tridiagonal solves (species marching), CG (PDN / Fig. 8) and
//! BiCGSTAB (thermal / Fig. 9).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bright_num::solvers::{bicgstab, conjugate_gradient, IterOptions};
use bright_num::tridiag::TridiagonalFactorization;
use bright_num::TripletMatrix;

fn laplacian_2d(n: usize) -> bright_num::CsrMatrix {
    let mut t = TripletMatrix::new(n * n, n * n);
    let idx = |i: usize, j: usize| i * n + j;
    for i in 0..n {
        for j in 0..n {
            t.push(idx(i, j), idx(i, j), 4.0).unwrap();
            if i > 0 {
                t.push(idx(i, j), idx(i - 1, j), -1.0).unwrap();
            }
            if i + 1 < n {
                t.push(idx(i, j), idx(i + 1, j), -1.0).unwrap();
            }
            if j > 0 {
                t.push(idx(i, j), idx(i, j - 1), -1.0).unwrap();
            }
            if j + 1 < n {
                t.push(idx(i, j), idx(i, j + 1), -1.0).unwrap();
            }
        }
    }
    t.to_csr()
}

fn convection_diffusion(n: usize) -> bright_num::CsrMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0).unwrap();
        if i > 0 {
            t.push(i, i - 1, -2.5).unwrap();
        }
        if i + 1 < n {
            t.push(i, i + 1, -1.0).unwrap();
        }
    }
    t.to_csr()
}

fn bench_tridiagonal(c: &mut Criterion) {
    let mut group = c.benchmark_group("tridiagonal");
    group.sample_size(30);
    for n in [64usize, 256, 1024] {
        let (lower, diag, upper) = (vec![-1.0; n - 1], vec![3.0; n], vec![-1.0; n - 1]);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let fac = TridiagonalFactorization::factor(&lower, &diag, &upper).unwrap();
                let mut x = black_box(&b).clone();
                fac.solve_in_place(&mut x).unwrap();
                x
            });
        });
    }
    group.finish();
}

fn bench_cg(c: &mut Criterion) {
    let mut group = c.benchmark_group("cg_laplacian");
    group.sample_size(10);
    for n in [32usize, 64] {
        let a = laplacian_2d(n);
        let b = vec![1.0; n * n];
        group.bench_with_input(BenchmarkId::from_parameter(n * n), &n, |bench, _| {
            bench.iter(|| {
                conjugate_gradient(black_box(&a), &b, None, &IterOptions::default()).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_bicgstab(c: &mut Criterion) {
    let mut group = c.benchmark_group("bicgstab_convdiff");
    group.sample_size(10);
    for n in [4096usize, 16384] {
        let a = convection_diffusion(n);
        let b = vec![1.0; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| bicgstab(black_box(&a), &b, None, &IterOptions::default()).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tridiagonal, bench_cg, bench_bicgstab);
criterion_main!(benches);
