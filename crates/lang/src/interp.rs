//! The reference sequential interpreter.
//!
//! This defines the meaning of the source program independent of any
//! machine: the test suite compares every compiled SPMD execution against
//! results produced here (gathered distributed arrays must equal the
//! sequential arrays element for element).

use crate::ast::*;
use crate::error::LangError;
use crate::scalar::{binop, unop, OpError, Scalar};
use crate::span::Span;
use crate::value::Value;
use std::collections::HashMap;

/// Default recursion-depth limit.
const MAX_CALL_DEPTH: usize = 512;

/// Outcome of executing a statement sequence.
enum Flow {
    /// Fell through normally.
    Normal,
    /// A `return` fired with this value.
    Returned(Value),
}

/// The sequential interpreter for one [`Program`].
///
/// # Examples
///
/// ```
/// use pdc_lang::{parse, interp::Interpreter, value::Value};
///
/// let program = parse("procedure sq(x) { return x * x; }")?;
/// let mut interp = Interpreter::new(&program);
/// assert_eq!(interp.run("sq", &[Value::Int(7)])?, Value::Int(49));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Interpreter<'a> {
    program: &'a Program,
    depth: usize,
    steps: u64,
    step_budget: u64,
}

impl<'a> Interpreter<'a> {
    /// An interpreter over `program` with a generous default step budget.
    pub fn new(program: &'a Program) -> Self {
        Interpreter {
            program,
            depth: 0,
            steps: 0,
            step_budget: u64::MAX,
        }
    }

    /// Bound the number of executed statements/expressions (guards tests
    /// against accidental non-termination).
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = budget;
        self
    }

    /// Statements/expressions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Call procedure `name` with `args`.
    ///
    /// # Errors
    ///
    /// [`LangError::Runtime`] for dynamic type errors, bad loop steps,
    /// recursion or step-budget overflow, unknown procedures;
    /// [`LangError::IStructure`] for double writes and reads of undefined
    /// elements.
    pub fn run(&mut self, name: &str, args: &[Value]) -> Result<Value, LangError> {
        let proc = self.program.proc(name).ok_or_else(|| LangError::Runtime {
            message: format!("unknown procedure `{name}`"),
            span: Span::default(),
        })?;
        if proc.params.len() != args.len() {
            return Err(LangError::Runtime {
                message: format!(
                    "`{name}` takes {} argument(s), {} given",
                    proc.params.len(),
                    args.len()
                ),
                span: proc.span,
            });
        }
        if self.depth >= MAX_CALL_DEPTH {
            return Err(LangError::Runtime {
                message: format!("recursion depth limit ({MAX_CALL_DEPTH}) exceeded"),
                span: proc.span,
            });
        }
        self.depth += 1;
        let mut env = Env::new();
        env.push_frame();
        for (p, a) in proc.params.iter().zip(args) {
            env.bind(p.clone(), a.clone());
        }
        let flow = self.exec_block(&proc.body, &mut env);
        self.depth -= 1;
        match flow? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Unit),
        }
    }

    fn charge(&mut self, span: Span) -> Result<(), LangError> {
        self.steps += 1;
        if self.steps > self.step_budget {
            return Err(LangError::Runtime {
                message: format!("step budget of {} exceeded", self.step_budget),
                span,
            });
        }
        Ok(())
    }

    fn exec_block(&mut self, block: &Block, env: &mut Env) -> Result<Flow, LangError> {
        env.push_frame();
        for stmt in &block.stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                returned => {
                    env.pop_frame();
                    return Ok(returned);
                }
            }
        }
        env.pop_frame();
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> Result<Flow, LangError> {
        self.charge(stmt.span())?;
        match stmt {
            Stmt::Let { name, init, .. } => {
                let v = self.eval(init, env)?;
                env.bind(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::ArrayWrite {
                array,
                indices,
                value,
                span,
            } => {
                let idx = self.eval_indices(indices, env)?;
                let val = self.eval(value, env)?;
                if !val.is_scalar() {
                    return Err(LangError::Runtime {
                        message: format!(
                            "only scalars may be stored in an i-structure, got {}",
                            val.type_name()
                        ),
                        span: *span,
                    });
                }
                let target = env.lookup(array, *span)?;
                match (&target, idx.as_slice()) {
                    (Value::Vector(v), [i]) => v
                        .borrow_mut()
                        .write((*i - 1).max(-1) as usize, val)
                        .map_err(|source| LangError::IStructure {
                            source,
                            span: *span,
                        })?,
                    (Value::Matrix(m), [i, j]) => {
                        m.borrow_mut().write(*i, *j, val).map_err(|source| {
                            LangError::IStructure {
                                source,
                                span: *span,
                            }
                        })?
                    }
                    (other, idx) => {
                        return Err(LangError::Runtime {
                            message: format!(
                                "cannot write {}-d subscript into {}",
                                idx.len(),
                                other.type_name()
                            ),
                            span: *span,
                        })
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
                span,
            } => {
                let lo = self.eval_int(lo, env)?;
                let hi = self.eval_int(hi, env)?;
                let step = match step {
                    Some(s) => self.eval_int(s, env)?,
                    None => 1,
                };
                if step == 0 {
                    return Err(LangError::Runtime {
                        message: "loop step must be non-zero".into(),
                        span: *span,
                    });
                }
                let mut v = lo;
                while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
                    self.charge(*span)?;
                    env.push_frame();
                    env.bind(var.clone(), Value::Int(v));
                    let flow = self.exec_block(body, env);
                    env.pop_frame();
                    match flow? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                    v = binop(BinOp::Add, Scalar::Int(v), Scalar::Int(step))
                        .map_err(|e| op_error(e, *span))?
                        .as_int()
                        .expect("int + int is an int");
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let c = self.eval(cond, env)?;
                match c {
                    Value::Bool(true) => self.exec_block(then_blk, env),
                    Value::Bool(false) => match else_blk {
                        Some(e) => self.exec_block(e, env),
                        None => Ok(Flow::Normal),
                    },
                    other => Err(LangError::Runtime {
                        message: format!("condition must be boolean, got {}", other.type_name()),
                        span: *span,
                    }),
                }
            }
            Stmt::Return { value, .. } => {
                let v = self.eval(value, env)?;
                Ok(Flow::Returned(v))
            }
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, env)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_indices(&mut self, indices: &[Expr], env: &mut Env) -> Result<Vec<i64>, LangError> {
        indices.iter().map(|e| self.eval_int(e, env)).collect()
    }

    fn eval_int(&mut self, expr: &Expr, env: &mut Env) -> Result<i64, LangError> {
        match self.eval(expr, env)? {
            Value::Int(v) => Ok(v),
            other => Err(LangError::Runtime {
                message: format!("expected integer, got {}", other.type_name()),
                span: expr.span,
            }),
        }
    }

    fn eval(&mut self, expr: &Expr, env: &mut Env) -> Result<Value, LangError> {
        self.charge(expr.span)?;
        match &expr.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::Var(name) => env.lookup(name, expr.span),
            ExprKind::ArrayRead { array, indices } => {
                let idx = self.eval_indices(indices, env)?;
                let target = env.lookup(array, expr.span)?;
                match (&target, idx.as_slice()) {
                    (Value::Vector(v), [i]) => {
                        let mut v = v.borrow_mut();
                        let linear = (*i - 1).max(-1) as usize;
                        v.read(linear)
                            .cloned()
                            .map_err(|source| LangError::IStructure {
                                source,
                                span: expr.span,
                            })
                    }
                    (Value::Matrix(m), [i, j]) => {
                        m.borrow_mut().read(*i, *j).cloned().map_err(|source| {
                            LangError::IStructure {
                                source,
                                span: expr.span,
                            }
                        })
                    }
                    (other, idx) => Err(LangError::Runtime {
                        message: format!(
                            "cannot read {}-d subscript from {}",
                            idx.len(),
                            other.type_name()
                        ),
                        span: expr.span,
                    }),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, env)?;
                // `and`/`or` short-circuit: a left operand that decides
                // the result is the result, and the right one never runs.
                if matches!(
                    (op, &l),
                    (BinOp::And, Value::Bool(false)) | (BinOp::Or, Value::Bool(true))
                ) {
                    return Ok(l);
                }
                let r = self.eval(rhs, env)?;
                let (Some(a), Some(b)) = (l.as_scalar(), r.as_scalar()) else {
                    return Err(LangError::Runtime {
                        message: format!(
                            "cannot apply `{op}` to {} and {}",
                            l.type_name(),
                            r.type_name()
                        ),
                        span: expr.span,
                    });
                };
                binop(*op, a, b)
                    .map(Value::from)
                    .map_err(|e| op_error(e, expr.span))
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                let Some(a) = v.as_scalar() else {
                    return Err(LangError::Runtime {
                        message: format!("cannot apply `{op}` to {}", v.type_name()),
                        span: expr.span,
                    });
                };
                unop(*op, a)
                    .map(Value::from)
                    .map_err(|e| op_error(e, expr.span))
            }
            ExprKind::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.run(name, &vals)
            }
            ExprKind::Alloc { dims } => {
                let idx = self.eval_indices(dims, env)?;
                for &d in &idx {
                    if d < 0 {
                        return Err(LangError::Runtime {
                            message: format!("array dimension must be non-negative, got {d}"),
                            span: expr.span,
                        });
                    }
                }
                match idx.as_slice() {
                    [n] => Ok(Value::new_vector(*n as usize)),
                    [r, c] => Ok(Value::new_matrix(*r as usize, *c as usize)),
                    _ => unreachable!("parser enforces 1 or 2 dims"),
                }
            }
        }
    }
}

/// An operator's failure as a run-time error at `span`.
fn op_error(e: OpError, span: Span) -> LangError {
    LangError::Runtime {
        message: e.to_string(),
        span,
    }
}

/// A lexical environment: a stack of frames.
struct Env {
    frames: Vec<HashMap<String, Value>>,
}

impl Env {
    fn new() -> Self {
        Env { frames: Vec::new() }
    }

    fn push_frame(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop_frame(&mut self) {
        self.frames.pop();
    }

    fn bind(&mut self, name: String, value: Value) {
        self.frames.last_mut().expect("frame").insert(name, value);
    }

    fn lookup(&self, name: &str, span: Span) -> Result<Value, LangError> {
        for f in self.frames.iter().rev() {
            if let Some(v) = f.get(name) {
                return Ok(v.clone());
            }
        }
        Err(LangError::Runtime {
            message: format!("`{name}` is unbound"),
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str, proc: &str, args: &[Value]) -> Result<Value, LangError> {
        let p = parse(src).expect("parse ok");
        Interpreter::new(&p).run(proc, args)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(
            run("procedure f() { return 2 + 3 * 4 - 1; }", "f", &[]).unwrap(),
            Value::Int(13)
        );
        assert_eq!(
            run("procedure f() { return 7 mod 3 + 7 div 3; }", "f", &[]).unwrap(),
            Value::Int(1 + 2)
        );
        // Euclidean semantics on negatives.
        assert_eq!(
            run("procedure f() { return (0 - 1) mod 4; }", "f", &[]).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn float_promotion() {
        assert_eq!(
            run("procedure f() { return 1 + 2.5; }", "f", &[]).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn loops_and_vectors() {
        let src = "procedure f(n) {
            let a = vector(n);
            for i = 1 to n do { a[i] = i * i; }
            return a[n];
        }";
        assert_eq!(run(src, "f", &[Value::Int(6)]).unwrap(), Value::Int(36));
    }

    #[test]
    fn loop_with_step_and_downward() {
        let src = "procedure f(n) {
            let a = vector(n);
            for i = 1 to n by 2 do { a[i] = 1; }
            for i = n to 2 by 0 - 2 do { a[i] = 2; }
            return a[1] + a[2] + a[3] + a[4];
        }";
        assert_eq!(
            run(src, "f", &[Value::Int(4)]).unwrap(),
            Value::Int(1 + 2 + 1 + 2)
        );
    }

    #[test]
    fn recursion_works() {
        let src = "procedure fib(n) {
            if n < 2 then { return n; }
            return fib(n - 1) + fib(n - 2);
        }";
        assert_eq!(run(src, "fib", &[Value::Int(10)]).unwrap(), Value::Int(55));
    }

    #[test]
    fn procedures_mutate_istructures_through_handles() {
        let src = "
            procedure init(a, n) {
                for i = 1 to n do { a[i] = 7; }
                return 0;
            }
            procedure f(n) {
                let a = vector(n);
                init(a, n);
                return a[n];
            }";
        assert_eq!(run(src, "f", &[Value::Int(3)]).unwrap(), Value::Int(7));
    }

    #[test]
    fn double_write_is_runtime_error() {
        let src = "procedure f() {
            let a = vector(1);
            a[1] = 1;
            a[1] = 2;
            return a[1];
        }";
        let err = run(src, "f", &[]).unwrap_err();
        assert!(err.to_string().contains("written twice"));
    }

    #[test]
    fn read_of_undefined_is_runtime_error() {
        let src = "procedure f() { let a = vector(2); return a[2]; }";
        let err = run(src, "f", &[]).unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn matrix_round_trip() {
        let src = "procedure f(n) {
            let m = matrix(n, n);
            for i = 1 to n do {
                for j = 1 to n do { m[i, j] = i * 10 + j; }
            }
            return m[2, 3];
        }";
        assert_eq!(run(src, "f", &[Value::Int(3)]).unwrap(), Value::Int(23));
    }

    #[test]
    fn gauss_seidel_small_grid() {
        // The paper's Figure 1 kernel on a 4x4 grid with c = 1.
        let src = "
            procedure gs(Old, n) {
                let New = matrix(n, n);
                for i = 1 to n do { New[i, 1] = 0; New[i, n] = 0; }
                for i = 2 to n - 1 do { New[1, i] = 0; New[n, i] = 0; }
                for j = 2 to n - 1 do {
                    for i = 2 to n - 1 do {
                        New[i, j] = 1 * (New[i-1, j] + New[i, j-1]
                                       + Old[i+1, j] + Old[i, j+1]);
                    }
                }
                return New;
            }";
        let p = parse(src).unwrap();
        let old = Value::new_matrix(4, 4);
        if let Value::Matrix(m) = &old {
            let mut m = m.borrow_mut();
            for i in 1..=4 {
                for j in 1..=4 {
                    m.write(i, j, Value::Int(1)).unwrap();
                }
            }
        }
        let out = Interpreter::new(&p)
            .run("gs", &[old, Value::Int(4)])
            .unwrap();
        if let Value::Matrix(m) = out {
            let mut m = m.borrow_mut();
            // New[2,2] = New[1,2] + New[2,1] + Old[3,2] + Old[2,3] = 0+0+1+1
            assert_eq!(*m.read(2, 2).unwrap(), Value::Int(2));
            // New[3,3] depends on freshly computed New values (wavefront).
            // New[2,3] = 0 + New[2,2] + 1 + 1 = 4; New[3,2] = New[2,2]+0+1+1 = 4
            // New[3,3] = New[2,3] + New[3,2] + 1 + 1 = 10
            assert_eq!(*m.read(3, 3).unwrap(), Value::Int(10));
        } else {
            panic!("expected matrix result");
        }
    }

    #[test]
    fn falls_off_end_returns_unit() {
        assert_eq!(
            run("procedure f() { let a = 1; }", "f", &[]).unwrap(),
            Value::Unit
        );
    }

    #[test]
    fn step_budget_stops_runaway() {
        let src = "procedure f() {
            for i = 1 to 1000000 do { }
            return 0;
        }";
        let p = parse(src).unwrap();
        let err = Interpreter::new(&p)
            .with_step_budget(1000)
            .run("f", &[])
            .unwrap_err();
        assert!(err.to_string().contains("step budget"));
    }

    #[test]
    fn zero_step_is_error() {
        let src = "procedure f() { for i = 1 to 3 by 0 do { } return 0; }";
        assert!(run(src, "f", &[])
            .unwrap_err()
            .to_string()
            .contains("non-zero"));
    }

    #[test]
    fn division_by_zero_reported() {
        let err = run("procedure f() { return 1 div 0; }", "f", &[]).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn negating_i64_min_is_an_overflow() {
        let src = "procedure f() { return -(0 - 9223372036854775807 - 1); }";
        let err = run(src, "f", &[]).unwrap_err();
        assert!(err.to_string().contains("integer overflow"), "{err}");
        // One short of the edge negates.
        let src = "procedure f() { return -(0 - 9223372036854775807); }";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Int(i64::MAX));
    }

    #[test]
    fn loop_step_past_i64_max_is_an_overflow() {
        // The body runs at i = MAX - 1; the step to MAX + 2 overflows.
        let src = "procedure f(a) {
            let m = 9223372036854775807;
            for i = m - 1 to m by 3 do { a[1] = i; }
            return 0;
        }";
        let p = parse(src).unwrap();
        let a = Value::new_vector(1);
        let err = Interpreter::new(&p)
            .run("f", std::slice::from_ref(&a))
            .unwrap_err();
        assert!(err.to_string().contains("integer overflow"), "{err}");
        if let Value::Vector(v) = a {
            assert_eq!(*v.borrow_mut().read(0).unwrap(), Value::Int(i64::MAX - 1));
        }
    }

    #[test]
    fn integers_compare_exactly_beyond_2_pow_53() {
        let src = "procedure f() {
            if 9007199254740993 == 9007199254740992 then { return 1; } else { return 2; }
        }";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Int(2));
        let src = "procedure f() {
            for i = 9007199254740993 to 9007199254740992 do { return 1; }
            return 0;
        }";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn short_circuit_avoids_rhs() {
        // The rhs would divide by zero if evaluated.
        let src = "procedure f() {
            if false and (1 div 0 == 0) then { return 1; }
            return 0;
        }";
        assert_eq!(run(src, "f", &[]).unwrap(), Value::Int(0));
    }
}
