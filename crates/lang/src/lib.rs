//! Front end for a first-order subset of **Id Nouveau**, the source
//! language of the paper (§2.1): a functional language augmented with
//! *I-structures* — write-once arrays that separate allocation from
//! element definition.
//!
//! The subset covers everything the paper's programs use:
//!
//! * procedures with parameters and recursion;
//! * `let` bindings and single-assignment scalar definitions;
//! * `for v = lo to hi [by step] do { … }` counted loops;
//! * `if/then/else`;
//! * 1-D (`vector(n)`) and 2-D (`matrix(n,m)`) I-structure allocation,
//!   element definition `A[i,j] = e` and reads `A[i,j]` with the paper's
//!   run-time error semantics (double write, read of undefined);
//! * integer and floating-point arithmetic, `mod`/`div` (Euclidean),
//!   comparisons, `min`/`max`, boolean connectives — defined once, on
//!   [`Scalar`]s, in [`scalar`], for every interpreter of the language.
//!
//! An optional `map { … }` header carries the *domain decomposition* in
//! source form (the italicized portion of the paper's Figure 1); the
//! compiler in `pdc-core` combines it with a machine size to build a
//! `pdc_mapping::Decomposition`.
//!
//! The crate also contains a reference **sequential interpreter**
//! ([`interp::Interpreter`]) — the semantics against which every compiled
//! SPMD program is checked in the test suite.
//!
//! # Examples
//!
//! ```
//! use pdc_lang::{parse, interp::Interpreter, value::Value};
//!
//! let src = r#"
//!     procedure main(n) {
//!         let a = vector(n);
//!         for i = 1 to n do { a[i] = i * i; }
//!         return a[n];
//!     }
//! "#;
//! let program = parse(src)?;
//! let mut interp = Interpreter::new(&program);
//! let result = interp.run("main", &[Value::Int(5)])?;
//! assert_eq!(result, Value::Int(25));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod check;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod scalar;
pub mod span;
pub mod token;
pub mod value;

pub use ast::{BinOp, Block, Expr, MapDecl, Proc, Program, Stmt, UnOp};
pub use check::check_all;
pub use error::LangError;
pub use parser::{parse, parse_unchecked};
pub use scalar::{binop, unop, OpError, Scalar};
pub use span::Span;
