//! The toy process the unit tests of both backends drive: a script of
//! actions, checkpointable, one action per step.

use crate::error::MachineError;
use crate::fabric::Fabric;
use crate::message::{ProcId, Tag};
use crate::sched::{Process, Step};
use std::time::Duration;

pub(crate) enum Action {
    Compute(u64),
    Send(usize, u32, Vec<i64>),
    Recv(usize, u32),
    /// Wall-clock sleep — models a slow peer without logical cost.
    Sleep(Duration),
    /// Abort the process with a [`MachineError::ProcessFault`].
    Fail,
    /// Panic the thread (exercises the unwind path of peer-death
    /// detection).
    Panic,
}

pub(crate) struct Scripted {
    script: Vec<Action>,
    pc: usize,
    pub(crate) received: Vec<Vec<i64>>,
}

impl Scripted {
    pub(crate) fn new(script: Vec<Action>) -> Self {
        Scripted {
            script,
            pc: 0,
            received: Vec::new(),
        }
    }

    /// The action the next step executes, if the script has one left.
    pub(crate) fn next_action(&self) -> Option<&Action> {
        self.script.get(self.pc)
    }

    /// Move past the next action without executing it.
    pub(crate) fn skip_action(&mut self) {
        self.pc += 1;
    }
}

impl Process for Scripted {
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut b = Vec::new();
        b.extend_from_slice(&(self.pc as u64).to_le_bytes());
        b.extend_from_slice(&(self.received.len() as u64).to_le_bytes());
        for r in &self.received {
            b.extend_from_slice(&(r.len() as u64).to_le_bytes());
            for w in r {
                b.extend_from_slice(&w.to_le_bytes());
            }
        }
        Some(b)
    }

    fn restore(&mut self, state: &[u8]) -> bool {
        let mut pos = 0;
        let u64_at = |p: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(state.get(*p..*p + 8)?.try_into().ok()?);
            *p += 8;
            Some(v)
        };
        let Some(pc) = u64_at(&mut pos) else {
            return false;
        };
        let Some(n) = u64_at(&mut pos) else {
            return false;
        };
        let mut received = Vec::new();
        for _ in 0..n {
            let Some(len) = u64_at(&mut pos) else {
                return false;
            };
            let mut words = Vec::new();
            for _ in 0..len {
                let Some(w) = u64_at(&mut pos) else {
                    return false;
                };
                words.push(w as i64);
            }
            received.push(words);
        }
        self.pc = pc as usize;
        self.received = received;
        true
    }

    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        let Some(action) = self.script.get(self.pc) else {
            return Ok(Step::Done);
        };
        match action {
            Action::Compute(c) => fabric.tick(me, *c),
            Action::Send(dst, tag, payload) => {
                fabric.send_ref(me, ProcId(*dst), Tag(*tag), payload);
            }
            Action::Recv(src, tag) => {
                let (src, tag) = (ProcId(*src), Tag(*tag));
                let mut words = Vec::new();
                if !fabric.try_recv_into(me, src, tag, &mut words) {
                    return Ok(Step::BlockedOnRecv { src, tag });
                }
                self.received.push(words);
            }
            Action::Sleep(d) => std::thread::sleep(*d),
            Action::Fail => {
                return Err(MachineError::ProcessFault {
                    proc: me,
                    message: "scripted fault".into(),
                });
            }
            Action::Panic => panic!("scripted panic"),
        }
        self.pc += 1;
        Ok(Step::Ran)
    }
}
