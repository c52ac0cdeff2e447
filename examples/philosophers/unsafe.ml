lock f1, f2, f3;
shared meals;
thread table {
  fork p1;
  fork p2;
  fork p3;
  join p1;
  join p2;
  join p3;
  print meals;
}
thread p1 {
  lock f1;
  lock f2;
  meals = meals + 1;
  unlock f2;
  unlock f1;
}
thread p2 {
  lock f2;
  lock f1;
  meals = meals + 1;
  unlock f1;
  unlock f2;
}
thread p3 {
  lock f2;
  lock f3;
  meals = meals + 1;
  unlock f3;
  unlock f2;
}
